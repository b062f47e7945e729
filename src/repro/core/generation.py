"""Design generation: driving an LLM to produce candidate code blocks.

The generator sends the prompts from :mod:`repro.core.prompts` to any
:class:`~repro.llm.base.LLMClient`, extracts the code block from each
response, and wraps it into a :class:`~repro.core.design.Design`.  Responses
without a usable code block are recorded as compilation-rejected designs so
that pool statistics stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..llm.base import LLMClient, first_code_block
from .design import CandidatePool, Design, DesignKind, DesignStatus
from .prompts import PromptConfig, build_network_prompt, build_state_prompt

__all__ = ["GenerationConfig", "DesignGenerator"]


@dataclass(frozen=True)
class GenerationConfig:
    """Controls one generation campaign."""

    prompt: PromptConfig = PromptConfig()
    temperature: float = 1.0
    #: Base seed; each request uses ``base_seed + index`` for reproducibility.
    base_seed: Optional[int] = None


class DesignGenerator:
    """Generates candidate designs with a single LLM backend."""

    def __init__(self, client: LLMClient,
                 config: Optional[GenerationConfig] = None) -> None:
        self.client = client
        self.config = config or GenerationConfig()

    # ------------------------------------------------------------------ #
    def generate(self, kind: DesignKind, count: int) -> List[Design]:
        """Generate ``count`` designs of ``kind`` (state or network)."""
        kind = DesignKind(kind)
        if count < 1:
            raise ValueError("count must be at least 1")
        if kind == DesignKind.STATE:
            messages = build_state_prompt(self.config.prompt)
        else:
            messages = build_network_prompt(self.config.prompt)

        designs: List[Design] = []
        for index in range(count):
            seed = (None if self.config.base_seed is None
                    else self.config.base_seed + index)
            completion = self.client.complete(messages,
                                              temperature=self.config.temperature,
                                              seed=seed)
            code = first_code_block(completion.text)
            tags = tuple(completion.metadata.get("tags", ()))
            if code is None:
                # A response with no code block cannot be evaluated; count it
                # as failing the compilation check.
                design = Design(kind=kind, code=completion.text or "<empty response>",
                                origin_model=completion.model, tags=tags)
                design.mark_rejected(DesignStatus.REJECTED_COMPILATION,
                                     "response contained no code block")
            else:
                design = Design(kind=kind, code=code,
                                origin_model=completion.model, tags=tags)
            designs.append(design)
        return designs

    def generate_states(self, count: int) -> List[Design]:
        """Generate ``count`` state-representation designs."""
        return self.generate(DesignKind.STATE, count)

    def generate_networks(self, count: int) -> List[Design]:
        """Generate ``count`` neural-network-architecture designs."""
        return self.generate(DesignKind.NETWORK, count)

    def populate_pool(self, pool: CandidatePool, kind: DesignKind,
                      count: int) -> List[Design]:
        """Generate designs and add them to an existing pool."""
        designs = self.generate(kind, count)
        pool.extend(designs)
        return designs
