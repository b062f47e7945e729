"""Static lowerability prediction for generated ``build_network`` blocks.

:func:`repro.nn.compile.plan_for` decides at *training time* whether a
network lowers onto the fused kernels; until then nobody knows whether a
generated design will train on the fast engines or silently fall back to
the (much slower) autograd graph path.  This module makes that call
statically, from the code block's AST, so the precheck stage can annotate
every accepted network design with a verdict and a reason before any
training happens.

Verdicts (:class:`LoweringPrediction`):

``compiled``
    A design-space :class:`~repro.abr.networks.GenericActorCritic` whose
    encoder and activation are both inside the fused-kernel vocabulary, or a
    :class:`~repro.abr.networks.PensieveNetwork` whose activation is —
    :func:`~repro.nn.compile.plan_for` will return a plan.
``graph_fallback``
    Provably not lowerable (e.g. an activation like ``"softmax"`` that the
    layer registry accepts but the fused kernels do not implement, or a
    local subclass that may override ``forward``/``_encode``).
``unknown``
    The block is too dynamic to classify (non-literal arguments, returns of
    locally computed values).

The prediction deliberately mirrors ``plan_for``'s published contract
rather than re-implementing its internals: encoders come from
:data:`LOWERABLE_ENCODERS` (the ``GenericActorCritic`` constructor's
vocabulary, all of which lower; ``PensieveNetwork`` has no encoder argument,
its branch bank always lowers) and activations from
:func:`repro.nn.compile.lowerable_activation_names`.  Flat state shapes
coerce any encoder to ``flatten`` at construction time; since ``flatten``
is itself lowerable, that coercion never changes a verdict.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional

from ...abr.networks import NETWORK_BUILDER_NAME
from ...nn.compile import lowerable_activation_names

__all__ = ["LOWERABLE_ENCODERS", "LoweringPrediction", "predict_lowerability"]

#: Encoder kinds the GenericActorCritic constructor accepts; every one of
#: them has a fused lowering in :mod:`repro.nn.compile`.
LOWERABLE_ENCODERS = ("flatten", "conv", "rnn", "gru", "lstm")

#: Default constructor arguments (mirrors ``GenericActorCritic.__init__`` and
#: ``PensieveNetwork.__init__``).
_DEFAULT_ACTIVATION = "relu"
_DEFAULT_ENCODER = "flatten"


@dataclass(frozen=True)
class LoweringPrediction:
    """Static verdict on how a network design will execute."""

    verdict: str  # "compiled" | "graph_fallback" | "unknown"
    reason: str
    activation: Optional[str] = None
    encoder: Optional[str] = None

    @property
    def fast(self) -> bool:
        """Whether the design avoids the slow graph path."""
        return self.verdict == "compiled"

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"verdict": self.verdict,
                                     "reason": self.reason}
        if self.activation is not None:
            record["activation"] = self.activation
        if self.encoder is not None:
            record["encoder"] = self.encoder
        return record


def _keyword_literal(call: ast.Call, name: str) -> object:
    """The literal value of keyword ``name``, a marker if dynamic/absent."""
    for keyword in call.keywords:
        if keyword.arg == name:
            if isinstance(keyword.value, ast.Constant):
                return keyword.value.value
            return _DYNAMIC
    return _ABSENT


_ABSENT = object()
_DYNAMIC = object()


def _classify_call(call: ast.Call) -> LoweringPrediction:
    """Classify one ``return nn_library.X(...)`` construction."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id == "nn_library"):
        return LoweringPrediction(
            "unknown", "returns something other than an nn_library "
            "construction; cannot classify statically")
    if func.attr not in ("GenericActorCritic", "PensieveNetwork"):
        return LoweringPrediction(
            "graph_fallback",
            f"nn_library.{func.attr} is not a lowerable design-space "
            "architecture")
    pensieve = func.attr == "PensieveNetwork"

    activation = _keyword_literal(call, "activation")
    # PensieveNetwork has no encoder argument: its branch bank always lowers.
    encoder = None if pensieve else _keyword_literal(call, "encoder")
    if activation is _ABSENT:
        activation = _DEFAULT_ACTIVATION
    if encoder is _ABSENT:
        encoder = _DEFAULT_ENCODER
    if activation is _DYNAMIC or encoder is _DYNAMIC:
        return LoweringPrediction(
            "unknown", "activation/encoder is not a literal; cannot "
            "classify statically")

    if activation is not None and (
            not isinstance(activation, str)
            or activation.lower() not in lowerable_activation_names()):
        return LoweringPrediction(
            "graph_fallback",
            f"activation {activation!r} has no fused kernel; plan_for will "
            "fall back to the autograd graph path",
            activation=str(activation),
            encoder=None if encoder is None else str(encoder))
    if pensieve:
        return LoweringPrediction(
            "compiled",
            f"PensieveNetwork with activation {activation!r} lowers onto the "
            "fused kernels (folded branch bank, dense towers)",
            activation=str(activation))
    if not isinstance(encoder, str) or encoder not in LOWERABLE_ENCODERS:
        return LoweringPrediction(
            "graph_fallback",
            f"encoder {encoder!r} is outside the lowerable vocabulary "
            f"{LOWERABLE_ENCODERS}",
            activation=str(activation), encoder=str(encoder))
    return LoweringPrediction(
        "compiled",
        f"GenericActorCritic with encoder {encoder!r} and activation "
        f"{activation!r} lowers onto the fused kernels",
        activation=str(activation), encoder=encoder)


def predict_lowerability(tree: ast.Module) -> LoweringPrediction:
    """Predict how the ``build_network`` in ``tree`` will execute."""
    definitions = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == NETWORK_BUILDER_NAME]
    if not definitions:
        return LoweringPrediction(
            "unknown", f"no module-level {NETWORK_BUILDER_NAME} definition")
    # The last definition wins at exec time, exactly like the sandbox.
    definition = definitions[-1]

    # Local subclasses can override forward/_encode, which plan_for refuses.
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                base_name = base.attr if isinstance(base, ast.Attribute) \
                    else getattr(base, "id", "")
                if base_name in ("GenericActorCritic", "PensieveNetwork",
                                 "ActorCriticNetwork"):
                    return LoweringPrediction(
                        "graph_fallback",
                        f"local subclass {node.name!r} may override "
                        "forward/_encode; the planner cannot prove kernel "
                        "equivalence")

    predictions: List[LoweringPrediction] = []
    for node in ast.walk(definition):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        if isinstance(node.value, ast.Call):
            predictions.append(_classify_call(node.value))
        elif not (isinstance(node.value, ast.Constant)
                  and node.value.value is None):
            predictions.append(LoweringPrediction(
                "unknown", "returns a locally computed value; cannot "
                "classify statically"))
    if not predictions:
        return LoweringPrediction(
            "unknown", f"{NETWORK_BUILDER_NAME} has no value-returning "
            "return statement")
    verdicts = {p.verdict for p in predictions}
    if len(verdicts) > 1:
        return LoweringPrediction(
            "unknown", "different return paths construct different "
            "architectures")
    return predictions[0]
