"""Design-space grammar behind the synthetic LLM.

The paper's LLMs produce *code blocks*: alternative implementations of the
state function and of the actor-critic architecture.  This module defines the
space of such code blocks as explicit, composable specifications
(:class:`StateDesignSpec`, :class:`NetworkDesignSpec`) together with emitters
that render a specification into Python source code.

The grammar covers:

* every concrete design idea §4 of the paper attributes to GPT-3.5/GPT-4
  (renormalization to [-1, 1], larger normalizing factors, feature removal,
  exponential moving averages, throughput variance, linear-regression
  prediction of throughput/download time, Savitzky-Golay buffer trends,
  buffer differences, wider hidden layers, Leaky ReLU, RNN/LSTM encoders,
  shared actor-critic trunks);
* the failure modes the paper's pre-checks target (code that raises at run
  time, code with syntax errors, and states with unnormalized features such as
  chunk sizes in raw bytes).
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = [
    "StateDesignSpec",
    "NetworkDesignSpec",
    "DesignSample",
    "StateDesignSpace",
    "NetworkDesignSpace",
    "STATE_EXTRA_FEATURES",
    "NETWORK_ENCODERS",
    "DEFECTS",
]

#: Optional feature blocks a state design may include.
STATE_EXTRA_FEATURES = (
    "throughput_ema",
    "throughput_variance",
    "throughput_trend",
    "predicted_throughput",
    "predicted_download_time",
    "buffer_trend_savgol",
    "buffer_diff",
    "buffer_trend_poly",
    "download_time_ema",
)

#: Encoders a generated architecture may use for the temporal state rows.
NETWORK_ENCODERS = ("pensieve_conv", "conv", "flatten", "rnn", "gru", "lstm")

#: Injectable defects (``None`` means a healthy design).
DEFECTS = ("syntax", "runtime", "shape", "raw_sizes", "raw_bitrate", "nan")


@dataclass
class DesignSample:
    """A rendered code block plus the specification that produced it."""

    code: str
    kind: str  # "state" or "network"
    spec: object
    tags: tuple[str, ...] = ()

    def describe(self) -> str:
        return f"{self.kind} design [{', '.join(self.tags) or 'baseline'}]"


# --------------------------------------------------------------------------- #
# State designs
# --------------------------------------------------------------------------- #
@dataclass
class StateDesignSpec:
    """Specification of one state-function design."""

    #: Normalization style: "unit" ([0,1]-ish, the original), "signed"
    #: (remapped to [-1,1]), "aggressive" (larger normalizing factors) or
    #: "mild" (smaller factors).
    normalization: str = "unit"
    #: Whether the download-time history row is kept.
    include_download_time: bool = True
    #: Whether the next-chunk-size row is kept.
    include_next_sizes: bool = True
    #: Extra engineered features, each adding one row to the state.
    extra_features: tuple[str, ...] = ()
    #: Injected defect (None for a healthy design).
    defect: Optional[str] = None

    def __post_init__(self) -> None:
        if self.normalization not in ("unit", "signed", "aggressive", "mild"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        for feature in self.extra_features:
            if feature not in STATE_EXTRA_FEATURES:
                raise ValueError(f"unknown extra feature {feature!r}")
        if self.defect is not None and self.defect not in DEFECTS:
            raise ValueError(f"unknown defect {self.defect!r}")

    @property
    def tags(self) -> tuple[str, ...]:
        tags = [f"norm:{self.normalization}"]
        if not self.include_download_time:
            tags.append("drop:download_time")
        if not self.include_next_sizes:
            tags.append("drop:next_sizes")
        tags.extend(f"feat:{f}" for f in self.extra_features)
        if self.defect:
            tags.append(f"defect:{self.defect}")
        return tuple(tags)


_NORMALIZATION_FACTORS = {
    # (buffer divisor, throughput divisor, download-time divisor)
    "unit": (10.0, 8.0, 10.0),
    "signed": (10.0, 8.0, 10.0),
    "aggressive": (30.0, 20.0, 20.0),
    "mild": (5.0, 4.0, 5.0),
}

_FEATURE_SNIPPETS = {
    "throughput_ema": """
    # Exponential moving average of throughput to smooth out noise.
    ema = np.zeros(history_len)
    running = throughput[0]
    for i in range(history_len):
        running = 0.7 * running + 0.3 * throughput[i]
        ema[i] = running
    rows.append(ema / {thr_div})
""",
    "throughput_variance": """
    # Throughput variability signals how risky a high bitrate would be.
    variance = float(np.var(throughput / {thr_div}))
    rows.append(np.full(history_len, variance))
""",
    "throughput_trend": """
    # Linear trend of recent throughput (positive means improving network).
    x_axis = np.arange(history_len, dtype=float)
    slope = float(np.polyfit(x_axis, throughput / {thr_div}, 1)[0])
    rows.append(np.full(history_len, np.clip(slope, -5.0, 5.0)))
""",
    "predicted_throughput": """
    # Predict the next throughput sample with a linear regression.
    x_axis = np.arange(history_len, dtype=float)
    coeffs = np.polyfit(x_axis, throughput, 1)
    predicted = float(np.polyval(coeffs, history_len))
    rows.append(np.full(history_len, max(predicted, 0.0) / {thr_div}))
""",
    "predicted_download_time": """
    # Predict the download time of the next chunk from the recent history.
    x_axis = np.arange(history_len, dtype=float)
    coeffs = np.polyfit(x_axis, download_time, 1)
    predicted_dl = float(np.polyval(coeffs, history_len))
    rows.append(np.full(history_len, np.clip(predicted_dl, 0.0, 100.0) / {dl_div}))
""",
    "buffer_trend_savgol": """
    # Smooth the buffer history with a Savitzky-Golay filter and use its trend.
    from scipy.signal import savgol_filter
    window = history_len if history_len % 2 == 1 else history_len - 1
    smoothed = savgol_filter(buffer_hist, window_length=max(window, 3), polyorder=1)
    rows.append(np.asarray(smoothed) / {buf_div})
""",
    "buffer_diff": """
    # Buffer change between adjacent steps: growing buffer invites higher bitrates.
    diffs = np.diff(buffer_hist, prepend=buffer_hist[0])
    rows.append(diffs / {buf_div})
""",
    "buffer_trend_poly": """
    # Linear trend of the playback buffer over the history window.
    x_axis = np.arange(history_len, dtype=float)
    buffer_slope = float(np.polyfit(x_axis, buffer_hist / {buf_div}, 1)[0])
    rows.append(np.full(history_len, np.clip(buffer_slope, -10.0, 10.0)))
""",
    "download_time_ema": """
    # Smoothed download times complement the raw history row.
    dl_ema = np.zeros(history_len)
    running_dl = download_time[0]
    for i in range(history_len):
        running_dl = 0.6 * running_dl + 0.4 * download_time[i]
        dl_ema[i] = running_dl
    rows.append(dl_ema / {dl_div})
""",
}


class StateDesignSpace:
    """Samples and renders state-function designs."""

    def render(self, spec: StateDesignSpec) -> str:
        """Render a specification into the source of a ``state_func`` block."""
        buf_div, thr_div, dl_div = _NORMALIZATION_FACTORS[spec.normalization]
        lines: List[str] = []
        lines.append("import numpy as np")
        lines.append("")
        lines.append("")
        lines.append("def state_func(bitrate_kbps_history, throughput_mbps_history,")
        lines.append("               download_time_s_history, buffer_size_s_history,")
        lines.append("               next_chunk_sizes_bytes, remaining_chunk_count,")
        lines.append("               total_chunk_count, bitrate_ladder_kbps):")
        lines.append('    """Alternative RL state representation for ABR."""')
        lines.append("    ladder = np.asarray(bitrate_ladder_kbps, dtype=float)")
        lines.append("    bitrates = np.asarray(bitrate_kbps_history, dtype=float)")
        lines.append("    throughput = np.asarray(throughput_mbps_history, dtype=float)")
        lines.append("    download_time = np.asarray(download_time_s_history, dtype=float)")
        lines.append("    buffer_hist = np.asarray(buffer_size_s_history, dtype=float)")
        lines.append("    sizes = np.asarray(next_chunk_sizes_bytes, dtype=float)")
        lines.append("    history_len = len(throughput)")
        lines.append("    rows = []")

        def add(snippet: str) -> None:
            rendered = snippet.format(buf_div=buf_div, thr_div=thr_div, dl_div=dl_div)
            lines.extend(rendered.rstrip("\n").split("\n"))

        # -- core rows ------------------------------------------------------
        if spec.defect == "raw_bitrate":
            add("""
    # (defective) previously selected bitrates left in raw kbps
    rows.append(bitrates)
""")
        else:
            add("""
    # Previously selected bitrates, relative to the top of the ladder.
    rows.append(bitrates / ladder[-1])
""")
        add("""
    # Playback buffer history.
    rows.append(buffer_hist / {buf_div})
    # Measured throughput history.
    rows.append(throughput / {thr_div})
""")
        if spec.include_download_time:
            add("""
    # Chunk download-time history.
    rows.append(download_time / {dl_div})
""")
        if spec.include_next_sizes:
            if spec.defect == "raw_sizes":
                add("""
    # (defective) next-chunk sizes left in raw bytes
    padded_sizes = np.zeros(history_len)
    count = min(len(sizes), history_len)
    padded_sizes[:count] = sizes[:count]
    rows.append(padded_sizes)
""")
            else:
                add("""
    # Sizes of the next chunk at each bitrate, in megabytes.
    padded_sizes = np.zeros(history_len)
    count = min(len(sizes), history_len)
    padded_sizes[:count] = sizes[:count] / 1e6
    rows.append(padded_sizes)
""")
        add("""
    # Fraction of the video that remains.
    rows.append(np.full(history_len, float(remaining_chunk_count) / max(float(total_chunk_count), 1.0)))
""")

        # -- extra engineered features ---------------------------------------
        for feature in spec.extra_features:
            add(_FEATURE_SNIPPETS[feature])

        # -- defects that alter the epilogue ----------------------------------
        if spec.defect == "runtime":
            lines.append("    rows.append(previous_quality_level / ladder[-1])")
        if spec.defect == "nan":
            lines.append("    rows.append(np.full(history_len, float('nan')))")

        lines.append("    state = np.stack(rows)")
        if spec.normalization == "signed":
            lines.append("    # Remap features from [0, 1] to [-1, 1].")
            lines.append("    state = 2.0 * state - 1.0")
        if spec.defect == "shape":
            lines.append("    state = state.reshape(state.shape[0], state.shape[1], 1, 1)")
        lines.append("    return state")

        source = "\n".join(lines)
        if spec.defect == "syntax":
            # Drop a closing parenthesis somewhere in the body.
            source = source.replace("np.stack(rows)", "np.stack(rows", 1)
        return source

    # ------------------------------------------------------------------ #
    def sample_spec(self, rng: np.random.Generator,
                    defect: Optional[str] = None,
                    creativity: float = 0.5) -> StateDesignSpec:
        """Draw a random specification.

        ``creativity`` controls how many optional features the design tends to
        include (the higher-capability model profile uses a larger value).
        """
        normalization = rng.choice(["unit", "signed", "aggressive", "mild"],
                                   p=[0.4, 0.25, 0.2, 0.15])
        include_download_time = bool(rng.random() > 0.15)
        include_next_sizes = bool(rng.random() > 0.15)
        if defect == "raw_sizes":
            # The defect lives in the next-sizes row; keep the row present so
            # every "raw_sizes" sample actually contains the defect.
            include_next_sizes = True
        n_extra = int(rng.binomial(3, creativity * 0.6))
        extras = tuple(rng.choice(STATE_EXTRA_FEATURES, size=n_extra,
                                  replace=False)) if n_extra else ()
        return StateDesignSpec(
            normalization=str(normalization),
            include_download_time=include_download_time,
            include_next_sizes=include_next_sizes,
            extra_features=extras,
            defect=defect,
        )

    def sample(self, rng: np.random.Generator, defect: Optional[str] = None,
               creativity: float = 0.5) -> DesignSample:
        spec = self.sample_spec(rng, defect=defect, creativity=creativity)
        return DesignSample(code=self.render(spec), kind="state", spec=spec,
                            tags=spec.tags)


# --------------------------------------------------------------------------- #
# Network designs
# --------------------------------------------------------------------------- #
@dataclass
class NetworkDesignSpec:
    """Specification of one actor-critic architecture design."""

    hidden_size: int = 128
    activation: str = "relu"
    encoder: str = "pensieve_conv"
    kernel_size: int = 4
    share_trunk: bool = False
    extra_depth: int = 0
    defect: Optional[str] = None

    def __post_init__(self) -> None:
        if self.encoder not in NETWORK_ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.defect is not None and self.defect not in DEFECTS:
            raise ValueError(f"unknown defect {self.defect!r}")
        if self.hidden_size < 1:
            raise ValueError("hidden size must be positive")

    @property
    def tags(self) -> tuple[str, ...]:
        tags = [f"hidden:{self.hidden_size}", f"act:{self.activation}",
                f"enc:{self.encoder}"]
        if self.share_trunk:
            tags.append("shared_trunk")
        if self.extra_depth:
            tags.append(f"depth:+{self.extra_depth}")
        if self.defect:
            tags.append(f"defect:{self.defect}")
        return tuple(tags)


class NetworkDesignSpace:
    """Samples and renders actor-critic architecture designs.

    Rendered code uses the ``nn_library`` module that the code sandbox injects
    (it exposes :class:`~repro.abr.networks.PensieveNetwork` and
    :class:`~repro.abr.networks.GenericActorCritic`), mirroring how the paper's
    generated TensorFlow code relied on the surrounding Pensieve code base.
    """

    def render(self, spec: NetworkDesignSpec) -> str:
        if spec.encoder == "pensieve_conv":
            body = textwrap.dedent(f"""
                def build_network(state_shape, num_actions, rng=None):
                    \"\"\"Pensieve-style per-row branches with modified hyper-parameters.\"\"\"
                    return nn_library.PensieveNetwork(
                        state_shape,
                        num_actions,
                        hidden_size={spec.hidden_size},
                        kernel_size={spec.kernel_size},
                        activation="{spec.activation}",
                        rng=rng,
                    )
            """).strip()
        else:
            encoder = "conv" if spec.encoder == "conv" else spec.encoder
            hidden_sizes = [spec.hidden_size] * (1 + max(spec.extra_depth, 0) + 1)
            body = textwrap.dedent(f"""
                def build_network(state_shape, num_actions, rng=None):
                    \"\"\"Alternative actor-critic: {encoder} encoder, {spec.hidden_size} hidden units.\"\"\"
                    return nn_library.GenericActorCritic(
                        state_shape,
                        num_actions,
                        hidden_sizes={tuple(hidden_sizes)},
                        activation="{spec.activation}",
                        encoder="{encoder}",
                        share_trunk={spec.share_trunk},
                        rng=rng,
                    )
            """).strip()
        source = "import numpy as np\n\n\n" + body

        if spec.defect == "runtime":
            source = source.replace("nn_library.GenericActorCritic",
                                    "nn_library.TransformerActorCritic")
            source = source.replace("nn_library.PensieveNetwork",
                                    "nn_library.TransformerActorCritic")
        elif spec.defect == "shape":
            source += "\n\n\ndef build_network(state_shape, num_actions, rng=None):\n    return None\n"
        elif spec.defect == "syntax":
            source = source.replace("state_shape,\n", "state_shape,,\n", 1)
            if ",," not in source:
                source = source.replace("(state_shape", "((state_shape", 1)
        elif spec.defect == "nan":
            source = source.replace(
                "def build_network(state_shape, num_actions, rng=None):",
                "def build_network(state_shape, num_actions, rng=None):\n"
                "    num_actions = int(num_actions * float('nan')) if False else num_actions",
                1)
        return source

    # ------------------------------------------------------------------ #
    def sample_spec(self, rng: np.random.Generator,
                    defect: Optional[str] = None,
                    creativity: float = 0.5) -> NetworkDesignSpec:
        hidden_size = int(rng.choice([64, 96, 128, 192, 256],
                                     p=[0.15, 0.1, 0.35, 0.1, 0.3]))
        activation = str(rng.choice(["relu", "leaky_relu", "elu", "tanh"],
                                    p=[0.4, 0.3, 0.15, 0.15]))
        # More "creative" profiles try non-convolutional encoders more often.
        p_alt = 0.25 + 0.4 * creativity
        if rng.random() < p_alt:
            encoder = str(rng.choice(["rnn", "gru", "lstm", "flatten", "conv"],
                                     p=[0.22, 0.2, 0.28, 0.15, 0.15]))
        else:
            encoder = "pensieve_conv"
        return NetworkDesignSpec(
            hidden_size=hidden_size,
            activation=activation,
            encoder=encoder,
            kernel_size=int(rng.choice([3, 4, 5], p=[0.25, 0.55, 0.2])),
            share_trunk=bool(rng.random() < 0.25),
            extra_depth=int(rng.integers(0, 2)),
            defect=defect,
        )

    def sample(self, rng: np.random.Generator, defect: Optional[str] = None,
               creativity: float = 0.5) -> DesignSample:
        spec = self.sample_spec(rng, defect=defect, creativity=creativity)
        return DesignSample(code=self.render(spec), kind="network", spec=spec,
                            tags=spec.tags)
