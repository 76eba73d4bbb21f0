"""DRAM command and access-condition datatypes (Fig. 5b of the paper)."""

from __future__ import annotations

import enum


class CommandKind(enum.Enum):
    """The DRAM commands the paper's energy model accounts for."""

    ACT = "activate"
    RD = "read"
    WR = "write"
    PRE = "precharge"


class AccessCondition(enum.Enum):
    """Row-buffer outcome of one access (Section II-B1).

    - *HIT*: the requested row is already in the row buffer — RD only.
    - *MISS*: the row buffer is empty — ACT then RD.
    - *CONFLICT*: another row occupies the buffer — PRE, ACT, then RD.
    """

    HIT = "hit"
    MISS = "miss"
    CONFLICT = "conflict"


#: Commands each access condition expands to, in issue order.
COMMANDS_FOR_CONDITION = {
    AccessCondition.HIT: (CommandKind.RD,),
    AccessCondition.MISS: (CommandKind.ACT, CommandKind.RD),
    AccessCondition.CONFLICT: (CommandKind.PRE, CommandKind.ACT, CommandKind.RD),
}
