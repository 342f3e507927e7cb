"""LLS baseline (Jiang et al., ACM TACO 2013).

LLS ("Line-Level mapping and Salvaging") shares WL-Reviver's goal — keep a
wear-leveling scheme functioning after block failures — but acquires its
backup space *explicitly*: it shrinks the software-usable address space in
64 MB chunks, partitions blocks into salvaging groups, and maps each failed
block to a backup block of the same group in the reserved area, maintained
in matching relative order.  To keep Start-Gap's space contiguous it also
*restricts* the address randomization to map each half of the PA space into
the opposite half, which is what compromises its leveling (Section IV-D).

The reproduction implements the behaviours the paper measures LLS by:

* chunk-granularity reservation (capacity falls in chunk steps; idle backup
  blocks are stranded per group);
* same-group backup assignment with relative-order bookkeeping;
* the restricted randomizer handicap on Start-Gap;
* 3 PCM accesses per failed-block access (block + bitmap + backup) without
  the remap cache, versus WL-Reviver's 2.
"""

from .chunks import ChunkReservation
from .groups import SalvageGroups
from .lls import LLSRecovery, LLSFastEngine

__all__ = ["ChunkReservation", "SalvageGroups", "LLSRecovery",
           "LLSFastEngine"]
