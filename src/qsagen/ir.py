"""Gate-level circuit IR and its two text renderings.

A circuit is an ordered list of instructions acting on ``num_qubits`` qubit
lines.  Bit 0 is the rightmost column in pictures and the least significant
bit of simulator basis indices.  Two renderings are supported:

* the *english* format -- one line per operation, fully spelling out the
  opcode, target(s), controls and angles (always degrees);
* the *picture* format -- one line per operation, ASCII art with a column
  every 4 characters per qubit, ``|`` wordlines, ``-`` wires and ``+`` where
  a wire crosses an idle wordline.

The english format is the authoritative, parseable representation; pictures
are write-only.  ``LOOP k REPS: n`` / ``NEXT k`` lines bracket a block to be
repeated ``n`` times.  The label ``k`` equals the 0-based line index of its
LOOP line.  Labels exist only in the text: in memory the nesting is the order
of the LOOP/NEXT markers alone, which every Circuit turns once into its loop
tree (``Circuit.tree``).  `render` works the labels out as it walks that
tree, and the parser checks them and drops them.

Multiplexor lines (``MP_Y``) rotate their target about y by one of ``2**k``
angles, selected by ``k`` *named* controls: the control named ``j`` supplies
bit ``j`` of the index into the angle list.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence


class Opcode(Enum):
    SIGX = "SIGX"
    SIGY = "SIGY"
    SIGZ = "SIGZ"
    HAD2 = "HAD2"
    ROTX = "ROTX"
    ROTY = "ROTY"
    ROTZ = "ROTZ"
    ROTN = "ROTN"
    PHAS = "PHAS"
    P0PH = "P0PH"
    P1PH = "P1PH"
    SWAP = "SWAP"
    MP_Y = "MP_Y"
    LOOP = "LOOP"
    NEXT = "NEXT"


PAULI_LIKE = frozenset({Opcode.SIGX, Opcode.SIGY, Opcode.SIGZ, Opcode.HAD2})
AXIS_ROTATIONS = frozenset({Opcode.ROTX, Opcode.ROTY, Opcode.ROTZ})
LOOP_MARKERS = frozenset({Opcode.LOOP, Opcode.NEXT})
SELF_INVERSE = frozenset({Opcode.SIGX, Opcode.SIGY, Opcode.SIGZ, Opcode.HAD2, Opcode.SWAP})

_ANGLE_COUNT = {
    Opcode.ROTX: 1, Opcode.ROTY: 1, Opcode.ROTZ: 1, Opcode.ROTN: 3,
    Opcode.PHAS: 1, Opcode.P0PH: 1, Opcode.P1PH: 1,
}
# Every other gate has one target, written after AT; SWAP's two are bare.
_TARGET_COUNT = {Opcode.SWAP: 2, Opcode.PHAS: 0}
# The loop tree is walked recursively; generated circuits nest one LOOP deep.
_MAX_LOOP_DEPTH = 100


class ParseError(ValueError):
    """Raised on a malformed english file; carries line number and token."""

    def __init__(self, message: str, line: int | None = None, token: str | None = None):
        self.line = line
        self.token = token
        where = f"line {line}: " if line is not None else ""
        what = f" (offending token {token!r})" if token is not None else ""
        super().__init__(f"{where}{message}{what}")


def format_number(x: float) -> str:
    """Shortest decimal that round-trips a 64-bit float, never bare-integer."""
    if x == 0.0:
        return "0.0"
    s = repr(float(x))
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


@dataclass(frozen=True, slots=True)
class Control:
    """A plain control: fire only when qubit `bit` is 1 (on) or 0 (off)."""

    bit: int
    on: bool = True

    def __post_init__(self):
        if self.bit < 0:
            raise ValueError(f"control bit must be non-negative, got {self.bit}")

    @property
    def token(self) -> str:
        return f"{self.bit}{'T' if self.on else 'F'}"


@dataclass(frozen=True, slots=True)
class MuxControl:
    """A multiplexor control at `bit`, feeding bit `name` of the angle index."""

    bit: int
    name: int

    def __post_init__(self):
        if self.bit < 0 or self.name < 0:
            raise ValueError(f"mux control bit/name must be non-negative, got {self}")

    @property
    def token(self) -> str:
        return f"{self.bit}({self.name}"


@dataclass(frozen=True)
class Instruction:
    """One line of a circuit.

    Controls and mux controls are kept sorted by descending bit position
    (the print order); SWAP targets are kept (high, low).  Angles are in
    degrees.  ``loop_reps`` is meaningful only for LOOP.  ``operand_bits``
    (targets, then control bits, then mux-control bits) is derived, not
    compared.
    """

    opcode: Opcode
    targets: tuple[int, ...] = ()
    controls: tuple[Control, ...] = ()
    mux_controls: tuple[MuxControl, ...] = ()
    angles_deg: tuple[float, ...] = ()
    loop_reps: int = 0
    operand_bits: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(
            self, "controls", tuple(sorted(self.controls, key=lambda c: -c.bit)))
        object.__setattr__(
            self, "mux_controls", tuple(sorted(self.mux_controls, key=lambda m: -m.bit)))
        object.__setattr__(self, "angles_deg", tuple(float(a) for a in self.angles_deg))
        if self.opcode is Opcode.SWAP:
            object.__setattr__(self, "targets", tuple(sorted(self.targets, reverse=True)))
        object.__setattr__(self, "operand_bits", self.targets
                           + tuple(c.bit for c in self.controls)
                           + tuple(m.bit for m in self.mux_controls))
        _check_instruction(self)

    @property
    def is_loop_marker(self) -> bool:
        return self.opcode in LOOP_MARKERS


def _check_instruction(ins: Instruction) -> None:
    op = ins.opcode
    if op in LOOP_MARKERS:
        if ins.targets or ins.controls or ins.mux_controls or ins.angles_deg:
            raise ValueError(f"{op.value} takes no operands")
        if op is Opcode.LOOP and ins.loop_reps < 1:
            raise ValueError(f"LOOP repetitions must be >= 1, got {ins.loop_reps}")
        if op is Opcode.NEXT and ins.loop_reps != 0:
            raise ValueError("NEXT carries no repetition count")
        return
    if ins.loop_reps != 0:
        raise ValueError(f"{op.value} carries no loop fields")

    want_targets = _TARGET_COUNT.get(op, 1)
    if len(ins.targets) != want_targets:
        raise ValueError(f"{op.value} needs {want_targets} target(s), got {len(ins.targets)}")
    if op is Opcode.SWAP and ins.targets[0] == ins.targets[1]:
        raise ValueError("SWAP targets must be distinct")
    if any(t < 0 for t in ins.targets):
        raise ValueError("target bits must be non-negative")

    if op is Opcode.MP_Y:
        k = len(ins.mux_controls)
        if k < 1:
            raise ValueError("MP_Y needs at least one mux control")
        names = sorted(m.name for m in ins.mux_controls)
        if names != list(range(k)):
            raise ValueError(f"MP_Y control names must be 0..{k - 1}, got {names}")
        if len(ins.angles_deg) != 1 << k:
            raise ValueError(
                f"MP_Y with {k} controls needs {1 << k} angles, got {len(ins.angles_deg)}")
    else:
        if ins.mux_controls:
            raise ValueError(f"{op.value} takes no mux controls")
        if len(ins.angles_deg) != _ANGLE_COUNT.get(op, 0):
            raise ValueError(
                f"{op.value} needs {_ANGLE_COUNT.get(op, 0)} angle(s), got {len(ins.angles_deg)}")

    if any(not math.isfinite(a) for a in ins.angles_deg):
        raise ValueError(f"{op.value} angles must be finite")

    bits = list(ins.operand_bits)
    if len(set(bits)) != len(bits):
        raise ValueError(f"{op.value} operand bits must be distinct, got {bits}")


# --- instruction constructors -------------------------------------------------

def sigx(target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.SIGX, (target,), tuple(controls))


def sigy(target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.SIGY, (target,), tuple(controls))


def sigz(target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.SIGZ, (target,), tuple(controls))


def had2(target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.HAD2, (target,), tuple(controls))


def rotx(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.ROTX, (target,), tuple(controls), angles_deg=(angle_deg,))


def roty(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.ROTY, (target,), tuple(controls), angles_deg=(angle_deg,))


def rotz(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.ROTZ, (target,), tuple(controls), angles_deg=(angle_deg,))


def rotn(ax: float, ay: float, az: float, target: int,
         controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.ROTN, (target,), tuple(controls), angles_deg=(ax, ay, az))


def phas(angle_deg: float, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.PHAS, (), tuple(controls), angles_deg=(angle_deg,))


def p0ph(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.P0PH, (target,), tuple(controls), angles_deg=(angle_deg,))


def p1ph(angle_deg: float, target: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.P1PH, (target,), tuple(controls), angles_deg=(angle_deg,))


def swap(a: int, b: int, controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.SWAP, (a, b), tuple(controls))


def mp_y(target: int, mux_controls: Iterable[MuxControl], angles_deg: Iterable[float],
         controls: Iterable[Control] = ()) -> Instruction:
    return Instruction(Opcode.MP_Y, (target,), tuple(controls),
                       tuple(mux_controls), tuple(angles_deg))


def loop(reps: int) -> Instruction:
    return Instruction(Opcode.LOOP, loop_reps=reps)


def end_loop() -> Instruction:
    return Instruction(Opcode.NEXT)


# --- circuits -------------------------------------------------------------------

@dataclass(frozen=True)
class Circuit:
    """An immutable instruction list over a fixed number of qubits.

    Construction keeps the body as given and validates every invariant
    (properly nested LOOP/NEXT markers, operand bits inside the register),
    so a Circuit in hand is always well-formed and writable.
    """

    num_qubits: int
    body: tuple[Instruction, ...] = ()
    # The loop tree of the body, built once here; nothing may mutate it.
    tree: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.num_qubits
        if n < 1:
            raise ValueError(f"num_qubits must be positive, got {n}")
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "tree", _nest(self.body))
        for index, ins in enumerate(self.body):
            for bit in ins.operand_bits:
                if bit >= n:
                    raise ValueError(f"line {index}: bit {bit} out of range for {n} qubit(s)")

    def __len__(self) -> int:
        return len(self.body)


def count_elementary_ops(circuit: Circuit) -> int:
    """Operation count with LOOP bodies weighted by their repetitions.

    LOOP/NEXT lines themselves are free; nested loops multiply; a
    multiplexor line counts as a single operation.
    """
    def weight(nodes: list) -> int:
        return sum(node.reps * weight(node.body) if isinstance(node, _Block) else 1
                   for node in nodes)
    return weight(circuit.tree)


# --- structural transforms ------------------------------------------------------

@dataclass
class _Block:
    reps: int
    body: list


def _nest(body: Sequence[Instruction]) -> list:
    """The loop tree of a flat body: gates, and one _Block per LOOP/NEXT pair.

    Raises ValueError, naming the 0-based line, on a NEXT with no open LOOP,
    a LOOP that is never closed, or loops nested deeper than _MAX_LOOP_DEPTH.
    """
    root: list = []
    current = root
    stack: list[tuple[list, int]] = []  # (enclosing body, line index of the open LOOP)
    for index, ins in enumerate(body):
        if ins.opcode is Opcode.LOOP:
            if len(stack) == _MAX_LOOP_DEPTH:
                raise ValueError(f"LOOP at line {index} nests deeper than {_MAX_LOOP_DEPTH}")
            block = _Block(ins.loop_reps, [])
            current.append(block)
            stack.append((current, index))
            current = block.body
        elif ins.opcode is Opcode.NEXT:
            if not stack:
                raise ValueError(f"NEXT at line {index} has no open LOOP")
            current, _ = stack.pop()
        else:
            current.append(ins)
    if stack:
        raise ValueError(f"LOOP at line {stack[-1][1]} is never closed")
    return root


def _flatten(nodes: list) -> Iterator[Instruction]:
    for node in nodes:
        if isinstance(node, _Block):
            yield loop(node.reps)
            yield from _flatten(node.body)
            yield end_loop()
        else:
            yield node


def _invert(ins: Instruction) -> Instruction:
    if ins.opcode in SELF_INVERSE:
        return ins
    return replace(ins, angles_deg=tuple(-a for a in ins.angles_deg))


def _dagger_nodes(nodes: list) -> list:
    out = []
    for node in reversed(nodes):
        if isinstance(node, _Block):
            out.append(_Block(node.reps, _dagger_nodes(node.body)))
        else:
            out.append(_invert(node))
    return out


def dagger(body: Sequence[Instruction]) -> tuple[Instruction, ...]:
    """Inverse of an instruction sequence: reverse order, negate angles.

    LOOP blocks stay blocks: their daggered bodies repeat the same number of
    times.
    """
    return tuple(_flatten(_dagger_nodes(_nest(body))))


def with_control(body: Sequence[Instruction], control: Control) -> tuple[Instruction, ...]:
    """Attach one extra control to every gate line; loop markers pass through.

    Raises ValueError if the control bit collides with any operand bit.
    """
    out = []
    for ins in body:
        if ins.is_loop_marker:
            out.append(ins)
        elif control.bit in ins.operand_bits:
            raise ValueError(
                f"control bit {control.bit} collides with {ins.opcode.value} operands")
        else:
            out.append(replace(ins, controls=ins.controls + (control,)))
    return tuple(out)


def unrolled(body: Sequence[Instruction]) -> Iterator[Instruction]:
    """Gate instructions in execution order with all loops expanded."""
    def walk(nodes: list) -> Iterator[Instruction]:
        for node in nodes:
            if isinstance(node, _Block):
                for _ in range(node.reps):
                    yield from walk(node.body)
            else:
                yield node
    yield from walk(_nest(body))


# --- writers --------------------------------------------------------------------

def render(circuit: Circuit,
           convert: Callable[[Instruction], Sequence[Instruction]] | None = None,
           ) -> tuple[int, str, str]:
    """(op count, english text, picture text) of a circuit, in one walk of
    its loop tree.

    ``convert`` maps one gate to the gates it is written as (by default the
    gate itself); the op count weights the written gates by their loops'
    repetitions.  A LOOP label is the running output line index, which its
    NEXT repeats.  Each gate is converted and rendered once per object and
    once per value: equal instructions differ at most in the sign of a zero
    angle, which format_number does not print.
    """
    n = circuit.num_qubits
    by_id: dict[int, tuple[str, str, int]] = {}  # id(gate) -> (english, picture, lines)
    by_value: dict[Instruction, tuple[str, str, int]] = {}
    out: list[tuple] = []  # (english, picture[, lines]) of each node, in output order
    line = 0

    def walk(nodes: list) -> int:
        nonlocal line
        ops = 0
        for node in nodes:
            if type(node) is _Block:
                label, line = line, line + 1
                out.append((f"LOOP {label} REPS: {node.reps}\n",
                            f"LOOP {label} REPS:{node.reps}\n"))
                ops += node.reps * walk(node.body)
                out.append((f"NEXT {label}\n", f"NEXT {label}\n"))
                line += 1
                continue
            chunk = by_id.get(id(node))
            if chunk is None:
                chunk = by_value.get(node)
                if chunk is None:
                    gates = (node,) if convert is None else convert(node)
                    chunk = by_value[node] = (
                        "".join(_english_line(g) + "\n" for g in gates),
                        "".join(_picture_line(g, n) + "\n" for g in gates), len(gates))
                by_id[id(node)] = chunk
            out.append(chunk)
            line += chunk[2]
            ops += chunk[2]
        return ops

    ops = walk(circuit.tree)
    return ops, "".join(c[0] for c in out), "".join(c[1] for c in out)


def write_english(circuit: Circuit) -> str:
    return render(circuit)[1]


def write_picture(circuit: Circuit) -> str:
    return render(circuit)[2]


# --- english format -------------------------------------------------------------

def _english_line(ins: Instruction) -> str:
    op = ins.opcode
    ctrls = [c.token for c in ins.controls]
    if op is Opcode.SWAP:
        line = f"SWAP  {ins.targets[0]}  {ins.targets[1]}"
        return line + (f"  IF  {'  '.join(ctrls)}" if ctrls else "")
    if op is Opcode.PHAS:
        line = f"PHAS {format_number(ins.angles_deg[0])}"
        return line + (f" IF  {'  '.join(ctrls)}" if ctrls else "")
    if op in (Opcode.P0PH, Opcode.P1PH):
        line = f"{op.value} {format_number(ins.angles_deg[0])} AT  {ins.targets[0]}"
        return line + (f" IF {' '.join(ctrls)}" if ctrls else "")
    if op in PAULI_LIKE:
        line = f"{op.value}  AT  {ins.targets[0]}"
        return line + (f"  IF  {'  '.join(ctrls)}" if ctrls else "")
    if op in AXIS_ROTATIONS:
        line = f"{op.value}  {format_number(ins.angles_deg[0])}  AT  {ins.targets[0]}"
        return line + (f"  IF  {'  '.join(ctrls)}" if ctrls else "")
    if op is Opcode.ROTN:
        angles = " ".join(format_number(a) for a in ins.angles_deg)
        line = f"ROTN  {angles}  AT  {ins.targets[0]}"
        return line + (f"  IF  {'  '.join(ctrls)}" if ctrls else "")
    # MP_Y: named controls first (descending bit), then plain controls.
    operands = " ".join([m.token for m in ins.mux_controls] + ctrls)
    angles = " ".join(format_number(a) for a in ins.angles_deg)
    return f"MP_Y  AT  {ins.targets[0]} IF {operands} BY {angles}"


# --- picture format -------------------------------------------------------------

_PICTURE_SYMBOL = {
    Opcode.SIGX: "X", Opcode.SIGY: "Y", Opcode.SIGZ: "Z", Opcode.HAD2: "H",
    Opcode.ROTX: "Rx", Opcode.ROTY: "Ry", Opcode.ROTZ: "Rz", Opcode.ROTN: "R",
    Opcode.P0PH: "0P", Opcode.P1PH: "@P",
}


def _picture_line(ins: Instruction, n: int) -> str:
    op = ins.opcode

    def col(bit: int) -> int:
        return 4 * (n - 1 - bit)

    symbols: list[tuple[int, str]] = [(col(c.bit), "@" if c.on else "0")
                                      for c in ins.controls]
    if op is Opcode.SWAP:
        symbols.append((col(ins.targets[0]), "<"))
        symbols.append((col(ins.targets[1]), ">"))
    elif op is Opcode.PHAS:
        free = [b for b in range(n) if b not in {c.bit for c in ins.controls}]
        if free:
            # Ph ends on its qubit column (leftmost qubit excepted).
            symbols.append((max(col(min(free)) - 1, 0), "Ph"))
        else:
            # every qubit is a control: hang Ph off the right edge
            symbols.append((col(0) + 2, "Ph"))
    elif op is Opcode.MP_Y:
        symbols.append((col(ins.targets[0]), "Ry"))
        symbols.extend((col(m.bit), f"({m.name}") for m in ins.mux_controls)
    else:
        symbols.append((col(ins.targets[0]), _PICTURE_SYMBOL[op]))

    start = min(s for s, _ in symbols)
    end = max(s + len(text) - 1 for s, text in symbols)
    row = [" "] * (max(end, col(0)) + 1)
    for p in range(start, end + 1):
        row[p] = "-"
    for bit in range(n):
        p = col(bit)
        row[p] = "+" if start <= p <= end else "|"
    for s, text in symbols:
        row[s:s + len(text)] = text
    return "".join(row)


# --- english parser -------------------------------------------------------------

_CONTROL_RE = re.compile(r"^(\d+)([TF])$")
_MUX_RE = re.compile(r"^(\d+)\((\d+)$")


def parse_english(text: str, num_qubits: int | None = None) -> Circuit:
    """Parse english-format text back into a Circuit.

    The qubit count is inferred as 1 + the highest bit mentioned unless
    given explicitly.  Loop labels must equal their 0-based line index and
    every LOOP must be closed by a NEXT with the same label, properly
    nested.  Any malformed line raises ParseError with its line number.
    Equal gate lines are parsed once and share one Instruction.
    """
    instructions: list[Instruction] = []
    gates: dict[str, Instruction] = {}  # gate line text -> its parsed instruction
    open_loops: list[tuple[int, int]] = []  # (label, line number)
    for index, raw in enumerate(text.splitlines()):
        ins = gates.get(raw)
        if ins is not None:
            instructions.append(ins)
            continue
        line_no = index + 1
        tokens = raw.split()
        if not tokens:
            raise ParseError("blank line", line_no)
        try:
            op = Opcode(tokens[0])
        except ValueError:
            raise ParseError("unknown opcode", line_no, tokens[0]) from None
        try:
            if op is Opcode.LOOP:
                label, reps = _parse_loop(tokens, line_no)
                if label != index:
                    raise ParseError(
                        f"LOOP label {label} must equal its line index {index}", line_no)
                ins = loop(reps)
                open_loops.append((label, line_no))
            elif op is Opcode.NEXT:
                if len(tokens) != 2:
                    raise ParseError("NEXT takes exactly one label", line_no)
                label = _int_token(tokens[1], line_no)
                if not open_loops:
                    raise ParseError("NEXT without an open LOOP", line_no)
                open_label, _ = open_loops.pop()
                if label != open_label:
                    raise ParseError(
                        f"NEXT label {label} does not match open LOOP {open_label}", line_no)
                ins = end_loop()
            else:
                ins = _parse_gate(op, tokens, line_no)
                if num_qubits is not None:
                    for bit in ins.operand_bits:
                        if bit >= num_qubits:
                            raise ParseError(
                                f"bit {bit} out of range for {num_qubits} qubit(s)", line_no)
                gates[raw] = ins
        except ParseError:
            raise
        except ValueError as err:
            raise ParseError(str(err), line_no) from None
        instructions.append(ins)
    if open_loops:
        label, line_no = open_loops[-1]
        raise ParseError(f"LOOP {label} is never closed", line_no)

    if num_qubits is None:
        num_qubits = 1 + max((b for ins in gates.values() for b in ins.operand_bits),
                             default=0)
    try:
        return Circuit(num_qubits, tuple(instructions))
    except ValueError as err:
        raise ParseError(str(err)) from None


def _parse_loop(tokens: list[str], line_no: int) -> tuple[int, int]:
    if len(tokens) < 3:
        raise ParseError("malformed LOOP line", line_no)
    label = _int_token(tokens[1], line_no)
    rest = tokens[2:]
    if len(rest) == 1 and rest[0].startswith("REPS:") and len(rest[0]) > 5:
        reps_tok = rest[0][5:]
    elif len(rest) == 2 and rest[0] == "REPS:":
        reps_tok = rest[1]
    else:
        raise ParseError("malformed LOOP line, expected REPS: <n>", line_no)
    return label, _int_token(reps_tok, line_no)


def _parse_gate(op: Opcode, tokens: list[str], line_no: int) -> Instruction:
    """Operands in one order for every gate: the angles, the targets (bare
    for SWAP, after AT otherwise), then ``IF`` controls; an MP_Y line's
    ``IF`` section mixes named and plain controls and ends in ``BY`` angles."""
    pos = 1 + _ANGLE_COUNT.get(op, 0)
    angles = tuple(_float_token(_at(tokens, i, line_no), line_no) for i in range(1, pos))
    width = _TARGET_COUNT.get(op, 1)
    if width == 1:
        _expect(tokens, pos, "AT", line_no)
        pos += 1
    targets = tuple(_int_token(_at(tokens, i, line_no), line_no)
                    for i in range(pos, pos + width))
    pos += width
    controls: tuple[Control, ...] = ()
    mux: list[MuxControl] = []
    if op is Opcode.MP_Y:
        _expect(tokens, pos, "IF", line_no)
        words = tokens[pos + 1:]
        by = words.index("BY") if "BY" in words else len(words)
        plain: list[Control] = []
        for tok in words[:by]:
            m = _MUX_RE.match(tok)
            if m:
                mux.append(MuxControl(int(m.group(1)), int(m.group(2))))
            else:
                plain.append(_control_token(tok, line_no))
        if by == len(words):
            raise ParseError("MP_Y line is missing its BY section", line_no)
        controls = tuple(plain)
        angles = tuple(_float_token(t, line_no) for t in words[by + 1:])
    elif pos < len(tokens):
        _expect(tokens, pos, "IF", line_no)
        if pos + 1 == len(tokens):
            raise ParseError("IF with no controls", line_no)
        controls = tuple(_control_token(t, line_no) for t in tokens[pos + 1:])
    return Instruction(op, targets, controls, tuple(mux), angles)


def _at(tokens: list[str], pos: int, line_no: int) -> str:
    if pos >= len(tokens):
        raise ParseError("unexpected end of line", line_no)
    return tokens[pos]


def _expect(tokens: list[str], pos: int, word: str, line_no: int) -> None:
    if pos >= len(tokens) or tokens[pos] != word:
        got = tokens[pos] if pos < len(tokens) else None
        raise ParseError(f"expected {word!r}", line_no, got)


def _control_token(tok: str, line_no: int) -> Control:
    m = _CONTROL_RE.match(tok)
    if not m:
        raise ParseError("bad control token", line_no, tok)
    return Control(int(m.group(1)), m.group(2) == "T")


def _int_token(tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError("expected an integer", line_no, tok) from None


def _float_token(tok: str, line_no: int) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ParseError("expected a number", line_no, tok) from None
    if not math.isfinite(value):
        raise ParseError("angle must be finite", line_no, tok)
    return value
