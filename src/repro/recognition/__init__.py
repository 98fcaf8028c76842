"""Probabilistic recognition over usage streams (HMM substrate).

The paper's related work [2] infers activities from object
interactions with probabilistic models; this package applies that
idea to CoReDA's training logs: a generic discrete HMM and gappy-log
repair against a known routine.
"""

from repro.recognition.hmm import DiscreteHMM
from repro.recognition.repair import EpisodeRepairer

__all__ = [
    "DiscreteHMM",
    "EpisodeRepairer",
]
