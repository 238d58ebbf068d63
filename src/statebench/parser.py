"""Parser and pretty-printer for the .psm model and .scn scenario formats.

Hand-rolled recursive descent over a small token stream. Every diagnostic,
syntax or validation, is a `model.ModelError` with a SourceSpan. parse_model
also runs model validation, meaning a ParseResult with ok=True always holds
an executable model.

The lexer is one `finditer` pass of `_TOKEN` over text whose line ends
`_parse` has made LF. Each match absorbs a run of blanks (space, tab), then
takes a newline, a `//` comment, a mark of `_PUNCT`, or a word (`\\w+`) or
else one non-blank character, in that order; trailing blanks match nothing.
Tokens are tuples. A word that starts with a letter or `_` is a name, and a
keyword is its own token kind. A word that starts with a digit gives its
leading run of `str.isdigit` characters as an integer, and the rest is
lexed again. Any other character is a BadCharacter diagnostic.

Recovery is panic mode. Every `{ ... }` body is read by the same loop,
``while cur.more(): with cur.statement(): ...``. A syntax error records its
diagnostic and raises `_Recover`; the statement guard catches it and skips
to the next ';' or block boundary, so one bad statement never hides the rest
of the file. The guard is the cursor's own `__enter__`/`__exit__`, so it
adds no stack frame per nesting level, and the nesting depth a model may
reach is set by the grammar's own recursion alone.

Example::

    result = parse_model(text, "demo.psm")
    if not result.ok:
        for err in result.errors:
            print(err)
    else:
        machine = result.model
"""

from __future__ import annotations

import io
import os
import re

from dataclasses import dataclass
from itertools import takewhile
from typing import Callable, NamedTuple, NoReturn, Optional, TypeVar, Union

from . import model as M
from . import scenario as S

KEYWORDS = {
    "machine", "signals", "vars", "region", "state", "final", "initial",
    "transition", "internal", "on", "entry", "do", "exit", "defer",
    "activity", "task", "send", "to", "self", "env", "accept", "par", "and",
    "scenario", "inject", "await", "stable", "expect", "eventually",
    "active", "emits", "never", "discards",
}

_PUNCT = ("->", ":=", "==", "!=", "{", "}", ";", ":", ",", "|", "/", "[",
          "]", "<", ">", "+", "-", ".")

_TOKEN = re.compile(r"[ \t]*(?:(\n)|//[^\n]*|(" + "|".join(map(re.escape, _PUNCT)) + r")|(\w+|[^ \t\n]))")


class Token(NamedTuple):
    kind: str        # "ident", "int", "eof", a keyword, or the punctuation text itself
    text: str
    line: int
    column: int

    def span(self, file: str) -> M.SourceSpan:
        return M.SourceSpan(file, self.line, self.column, max(1, len(self.text)))


@dataclass
class ParseResult:
    model: Optional[M.MachineModel]
    errors: list[M.ModelError]

    @property
    def ok(self) -> bool:
        return self.model is not None and not self.errors


@dataclass
class ScenarioResult:
    scenario: Optional[S.Scenario]
    errors: list[M.ModelError]

    @property
    def ok(self) -> bool:
        return self.scenario is not None and not self.errors


class ParseFailure(Exception):
    def __init__(self, errors: list[M.ModelError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


# --- lexer -------------------------------------------------------------------


def _lex(text: str, file: str, errors: list[M.ModelError]) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # the line number and the offset where the line starts
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            line, start = line + 1, m.end()
        elif group == 2:
            tokens.append(Token(m[2], m[2], line, m.start(2) - start + 1))
        elif group == 3:  # a word, or one character that no other group takes
            i, word = m.start(3), m[3]
            while word:  # after an integer or a bad character, the rest of the word is lexed again
                if word[0].isalpha() or word[0] == "_":
                    tokens.append(Token(word if word in KEYWORDS else "ident", word, line, i - start + 1))
                    break
                head = "".join(takewhile(str.isdigit, word)) or word[0]
                if head[0].isdigit():
                    tokens.append(Token("int", head, line, i - start + 1))
                else:
                    errors.append(M.ModelError("BadCharacter", f"unexpected character {head!r}",
                                               M.SourceSpan(file, line, i - start + 1)))
                i, word = i + len(head), word[len(head):]
    tokens.append(Token("eof", "", line, len(text) - start + 1))
    return tokens


# --- token cursor ------------------------------------------------------------


class _Recover(Exception):
    pass


class _Cursor:
    def __init__(self, tokens: list[Token], file: str, errors: list[M.ModelError]):
        self.tokens = tokens
        self.pos = 0
        self.file = file
        self.errors = errors

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def take(self, kind: str) -> Optional[Token]:
        """The current token, consumed, if it is of `kind`; else None."""
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            return None
        self.pos += 1
        return tok

    def fail(self, code: str, message: str, tok: Optional[Token] = None) -> NoReturn:
        self.errors.append(M.ModelError(code, message, (tok or self.peek()).span(self.file)))
        raise _Recover()

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        """Take a token of `kind`; `what` names it in the diagnostic, which
        otherwise quotes the kind (a keyword or punctuation mark)."""
        tok = self.take(kind)
        if tok is None:
            self.fail("Expected", f"expected {what or repr(kind)}, got {self.peek().text or 'end of file'!r}")
        return tok

    def expect_ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind in KEYWORDS:
            self.fail("Expected", f"expected {what}, got keyword {tok.text!r}")
        return self.expect("ident", what).text

    def names(self, sep: str, what: str) -> list[str]:
        """One or more names separated by `sep`."""
        found = [self.expect_ident(what)]
        while self.take(sep):
            found.append(self.expect_ident(what))
        return found

    def refer(self, known: bool, message: str, span: M.SourceSpan) -> None:
        """An UnknownReference diagnostic at `span` unless `known`; unlike
        `fail`, it keeps the statement."""
        if not known:
            self.errors.append(M.ModelError("UnknownReference", message, span))

    def end(self) -> None:
        self.expect(";")

    def more(self) -> bool:
        """Whether the `{ ... }` body being read holds another statement; at
        its end, take the closing '}'."""
        if self.tokens[self.pos].kind not in ("}", "eof"):
            return True
        self.expect("}")
        return False

    def statement(self) -> _Cursor:
        """The guard of one statement: ``with cur.statement(): ...``."""
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: object, exc: object, tb: object) -> bool:
        """On `_Recover`, skip through the next ';' or to a '}'/eof at the
        statement's own depth (panic mode)."""
        if kind is not _Recover:
            return False
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof" or (tok.kind == "}" and depth == 0):
                return True
            depth += (tok.kind == "{") - (tok.kind == "}")
            self.advance()
            if tok.kind == ";" and depth == 0:
                return True


_T = TypeVar("_T")
_R = TypeVar("_R", ParseResult, ScenarioResult)


def _parse(text: str, file: str, rule: Callable[[_Cursor], _T]) -> tuple[Optional[_T], list[M.ModelError]]:
    """Lex and apply `rule`; the value is None if there is any diagnostic."""
    errors: list[M.ModelError] = []
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # the line ends open() gives a file
    cur = _Cursor(_lex(text, file, errors), file, errors)
    value = None
    with cur.statement():
        value = rule(cur)
    return (None if errors else value), errors


def _load(path: "str | os.PathLike[str]", parse: Callable[[str, str], _R]) -> _R:
    """Read a UTF-8 file and parse it, raising ParseFailure on any diagnostic."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:  # exc.object holds the whole file: read() decodes it at once
        # the newlines as open() translates them for the lexer: a CR LF pair or a lone CR is "\n"
        lines = io.StringIO(exc.object[:exc.start].decode("utf-8"), newline=None).read().split("\n")
        span = M.SourceSpan(str(path), len(lines), len(lines[-1]) + 1)
        raise ParseFailure([M.ModelError("BadEncoding", f"file is not UTF-8 text: {exc.reason}", span)]) from None
    result = parse(text, str(path))
    if not result.ok:
        raise ParseFailure(result.errors)
    return result


# --- model grammar -----------------------------------------------------------


def parse_model(text: str, file: str = "<string>") -> ParseResult:
    machine, errors = _parse(text, file, _parse_machine)
    if machine is not None:
        errors = M.validate(machine)
    return ParseResult(None if errors else machine, errors)


def load_model(path: "str | os.PathLike[str]") -> M.MachineModel:
    """Parse a machine file, raising ParseFailure on any diagnostic."""
    model = _load(path, parse_model).model
    assert model is not None  # _load returns only a result that is ok
    return model


def _parse_machine(cur: _Cursor) -> M.MachineModel:
    head = cur.expect("machine")
    name = cur.expect_ident("machine name")
    signals: list[str] = []
    variables: list[str] = []
    regions: list[M.Region] = []
    activities: list[M.Activity] = []
    cur.expect("{")
    while cur.more():
        with cur.statement():
            if cur.take("signals"):
                signals.extend(cur.names(",", "name"))
                cur.end()
            elif cur.take("vars"):
                variables.extend(cur.names(",", "name"))
                cur.end()
            elif cur.at("activity"):
                activities.append(_parse_activity(cur))
            elif cur.at("region"):
                regions.append(_parse_region(cur))
            else:
                cur.fail("Expected", f"expected signals/vars/activity/region, got {cur.peek().text!r}")
    return M.MachineModel(name, tuple(signals), tuple(variables),
                          tuple(regions), tuple(activities),
                          span=head.span(cur.file))


def _parse_region(cur: _Cursor) -> M.Region:
    head = cur.expect("region")
    name = cur.expect_ident("region name")
    vertices: list[M.Vertex] = []
    transitions: list[M.Transition] = []
    cur.expect("{")
    while cur.more():
        with cur.statement():
            tok = cur.peek()
            if cur.take("initial"):
                cur.expect("->")
                target = cur.expect_ident("initial target")
                effect = cur.expect_ident("effect activity") if cur.take("/") else None
                cur.end()
                vertices.append(M.InitialPseudostate(span=tok.span(cur.file)))
                transitions.append(M.Transition(
                    name=f"initial_{name}", source="", target=target,
                    kind=M.TransitionKind.EXTERNAL, effect=effect,
                    is_initial=True, span=tok.span(cur.file)))
            elif cur.at("state"):
                vertices.append(_parse_state(cur))
            elif cur.take("final"):
                vname = cur.expect_ident("final state name")
                cur.end()
                vertices.append(M.FinalState(vname, span=tok.span(cur.file)))
            elif cur.at("transition") or cur.at("internal"):
                transitions.append(_parse_transition(cur))
            else:
                cur.fail("Expected", f"expected a vertex or transition, got {tok.text!r}")
    return M.Region(name, tuple(vertices), tuple(transitions), span=head.span(cur.file))


def _parse_state(cur: _Cursor) -> M.State:
    head = cur.expect("state")
    name = cur.expect_ident("state name")
    behaviors: dict[str, Optional[str]] = {"entry": None, "exit": None, "do": None}
    defer: list[str] = []
    regions: list[M.Region] = []
    cur.expect("{")
    while cur.more():
        with cur.statement():
            tok = cur.peek()
            if tok.kind in behaviors:
                cur.advance()
                behaviors[tok.kind] = cur.expect_ident(f"{tok.kind} activity")
                cur.end()
            elif cur.take("defer"):
                defer.extend(cur.names(",", "name"))
                cur.end()
            elif cur.at("region"):
                regions.append(_parse_region(cur))
            else:
                cur.fail("Expected", f"expected entry/exit/do/defer/region, got {tok.text!r}")
    return M.State(name, entry=behaviors["entry"], exit=behaviors["exit"],
                   do_activity=behaviors["do"], defer=tuple(defer),
                   regions=tuple(regions), span=head.span(cur.file))


def _parse_transition(cur: _Cursor) -> M.Transition:
    head = cur.advance()  # "transition" or "internal"
    internal = head.kind == "internal"
    name = cur.expect_ident("transition name")
    cur.expect(":")
    source = target = cur.expect_ident("source state")
    if not internal:
        cur.expect("->")
        target = cur.expect_ident("target state")
    trigger = cur.expect_ident("trigger signal") if cur.take("on") else None
    kind = (M.TransitionKind.INTERNAL if internal else
            M.TransitionKind.COMPLETION if trigger is None else M.TransitionKind.EXTERNAL)
    guard = _parse_guard(cur) if cur.take("[") else None
    effect = cur.expect_ident("effect activity") if cur.take("/") else None
    cur.end()
    return M.Transition(name=name, source=source, target=target, kind=kind,
                        trigger=trigger, guard=guard, effect=effect,
                        span=head.span(cur.file))


def _parse_guard(cur: _Cursor) -> M.Guard:
    """The rest of a guard after its '['."""
    var = cur.expect_ident("guard variable")
    op_tok = cur.advance()
    if op_tok.text not in M.GUARD_OPS:
        cur.fail("Expected", f"expected comparison operator, got {op_tok.text!r}", op_tok)
    literal = _parse_int(cur)
    cur.expect("]")
    return M.Guard(var, op_tok.text, literal)


def _parse_int(cur: _Cursor) -> int:
    negative = cur.take("-") is not None
    tok = cur.expect("int", "integer literal")
    try:
        value = int(tok.text)
    except ValueError:  # a digit such as '²', or more digits than int() reads
        cur.fail("BadInteger", f"integer literal {tok.text[:20]!r}: not ASCII digits, or too many digits", tok)
    return -value if negative else value


def _parse_activity(cur: _Cursor) -> M.Activity:
    head = cur.expect("activity")
    name = cur.expect_ident("activity name")
    body = _parse_block(cur)
    return M.Activity(name, body, span=head.span(cur.file))


def _parse_block(cur: _Cursor) -> tuple[M.Node, ...]:
    nodes: list[M.Node] = []
    cur.expect("{")
    while cur.more():
        with cur.statement():
            nodes.append(_parse_node(cur))
    return tuple(nodes)


def _parse_node(cur: _Cursor) -> M.Node:
    tok = cur.peek()
    span = tok.span(cur.file)
    if cur.take("task"):
        label = cur.expect_ident("task label")
        cur.end()
        return M.Task(label, span=span)
    if cur.take("send"):
        signal = cur.expect_ident("signal name")
        cur.expect("to")
        to_env = cur.take("env") is not None
        if not to_env:
            cur.expect("self")
        cur.end()
        return M.SendSignal(signal, to_env, span=span)
    if cur.take("accept"):
        signals = cur.names("|", "signal name")
        cur.end()
        return M.AcceptEvent(tuple(signals), span=span)
    if cur.take("par"):
        branches = [_parse_block(cur)]
        while cur.take("and"):
            branches.append(_parse_block(cur))
        cur.take(";")  # tolerated, not required
        return M.Par(tuple(branches), span=span)
    if cur.take("final"):
        cur.end()
        return M.FinalNode(span=span)
    if cur.take("ident"):
        # bare assignment statement:  x := y + 1;
        cur.expect(":=")
        left = _parse_term(cur)
        op = cur.take("+") or cur.take("-")
        right = _parse_term(cur) if op else None
        cur.end()
        assignment = M.Assignment(tok.text, left, op and op.text, right)
        return M.Task(assignment.text(), assignment=assignment, span=span)
    cur.fail("Expected", f"expected an activity statement, got {tok.text or 'end of file'!r}")


def _parse_term(cur: _Cursor) -> Union[str, int]:
    if cur.at("int") or cur.at("-"):
        return _parse_int(cur)
    return cur.expect_ident("variable or integer")


# --- scenario grammar ---------------------------------------------------------


def parse_scenario(text: str, machine: M.MachineModel,
                   file: str = "<string>") -> ScenarioResult:
    return ScenarioResult(*_parse(text, file, lambda cur: _parse_scenario_body(cur, machine)))


def load_scenario(path: "str | os.PathLike[str]", machine: M.MachineModel) -> S.Scenario:
    """Parse a scenario file against a machine, raising ParseFailure on any
    diagnostic."""
    scenario = _load(path, lambda text, file: parse_scenario(text, machine, file)).scenario
    assert scenario is not None  # _load returns only a result that is ok
    return scenario


def _parse_scenario_body(cur: _Cursor, machine: M.MachineModel) -> S.Scenario:
    head = cur.expect("scenario")
    name = cur.expect_ident("scenario name")
    steps: list[S.Step] = []
    expectations: list[S.Expectation] = []
    signals = set(machine.signals)
    states = machine.state_refs
    cur.expect("{")
    while cur.more():
        with cur.statement():
            tok = cur.peek()
            span = tok.span(cur.file)
            if cur.take("inject"):
                sig = cur.expect_ident("signal name")
                cur.refer(sig in signals, f"injected signal {sig!r} is not declared by machine {machine.name!r}", span)
                cur.end()
                steps.append(S.Inject(sig, span=span))
            elif cur.take("await"):
                cur.expect("-")
                cur.expect("stable")
                cur.end()
                steps.append(S.AwaitStable(span=span))
            elif cur.take("expect"):
                expectations.append(_parse_expectation(cur, signals, states, span))
            else:
                cur.fail("Expected", f"expected inject/await-stable/expect, got {tok.text!r}")
    return S.Scenario(name, tuple(steps), tuple(expectations), span=head.span(cur.file))


def _parse_expectation(cur: _Cursor, signals: set[str], states: dict[str, tuple[str, ...]],
                       span: M.SourceSpan) -> S.Expectation:
    if cur.take("eventually"):
        cur.expect("-")
        cur.expect("active")
        ref = ".".join(cur.names(".", "state name"))
        cur.refer(ref in states, f"state {ref!r} not found in the machine", span)
        cur.end()
        return S.EventuallyActive(ref, span=span)
    if cur.take("emits"):
        seq = [] if cur.at(";") else cur.names(",", "signal name")
        for sig in seq:
            cur.refer(sig in signals, f"expected signal {sig!r} is not declared", span)
        cur.end()
        return S.Emits(tuple(seq), span=span)
    if cur.take("never"):
        cur.expect("-")
        cur.expect("discards")
        sig = cur.expect_ident("signal name")
        cur.refer(sig in signals, f"signal {sig!r} is not declared", span)
        cur.end()
        return S.NeverDiscards(sig, span=span)
    cur.fail("Expected", f"expected an expectation kind, got {cur.peek().text!r}")


# --- pretty printer ------------------------------------------------------------


def pretty_print(machine: M.MachineModel) -> str:
    """Render a model back to .psm text. parse_model(pretty_print(m)) == m."""
    out: list[str] = [f"machine {machine.name} {{"]
    if machine.signals:
        out.append(f"  signals {', '.join(machine.signals)};")
    if machine.variables:
        out.append(f"  vars {', '.join(machine.variables)};")
    for act in machine.activities:
        out.append("")
        out.append(f"  activity {act.name} {{")
        _print_block(act.body, out, indent=2)
        out.append("  }")
    for region in machine.regions:
        out.append("")
        _print_region(region, out, indent=1)
    out.append("}")
    return "\n".join(out) + "\n"


def _print_block(body: tuple[M.Node, ...], out: list[str], indent: int) -> None:
    pad = "  " * indent
    for node in body:
        if isinstance(node, M.Task):
            if node.assignment is not None:
                out.append(f"{pad}{node.assignment.text()};")
            else:
                out.append(f"{pad}task {node.label};")
        elif isinstance(node, M.SendSignal):
            out.append(f"{pad}send {node.signal} to {'env' if node.to_env else 'self'};")
        elif isinstance(node, M.AcceptEvent):
            out.append(f"{pad}accept {' | '.join(node.signals)};")
        elif isinstance(node, M.Par):
            for i, branch in enumerate(node.branches):
                out.append(f"{pad}{'par' if i == 0 else 'and'} {{")
                _print_block(branch, out, indent + 1)
                out.append(f"{pad}}}")
        elif isinstance(node, M.FinalNode):
            out.append(f"{pad}final;")


def _print_region(region: M.Region, out: list[str], indent: int) -> None:
    pad = "  " * indent
    out.append(f"{pad}region {region.name} {{")
    initial = region.initial_transition()
    if initial is not None:
        effect = f" / {initial.effect}" if initial.effect else ""
        out.append(f"{pad}  initial -> {initial.target}{effect};")
    for v in region.vertices:
        if isinstance(v, M.State):
            _print_state(v, out, indent + 1)
        elif isinstance(v, M.FinalState):
            out.append(f"{pad}  final {v.name};")
    for t in region.transitions:
        if t.is_initial:
            continue
        guard = f" [{t.guard.text()}]" if t.guard else ""
        effect = f" / {t.effect}" if t.effect else ""
        if t.kind is M.TransitionKind.INTERNAL:
            out.append(f"{pad}  internal {t.name}: {t.source} on {t.trigger}{guard}{effect};")
        elif t.kind is M.TransitionKind.COMPLETION:
            out.append(f"{pad}  transition {t.name}: {t.source} -> {t.target}{guard}{effect};")
        else:
            out.append(f"{pad}  transition {t.name}: {t.source} -> {t.target} on {t.trigger}{guard}{effect};")
    out.append(f"{pad}}}")


def _print_state(state: M.State, out: list[str], indent: int) -> None:
    pad = "  " * indent
    bits: list[str] = []
    if state.entry:
        bits.append(f"entry {state.entry};")
    if state.exit:
        bits.append(f"exit {state.exit};")
    if state.do_activity:
        bits.append(f"do {state.do_activity};")
    if state.defer:
        bits.append(f"defer {', '.join(state.defer)};")
    if not state.regions and not bits:
        out.append(f"{pad}state {state.name} {{ }}")
        return
    if not state.regions:
        out.append(f"{pad}state {state.name} {{ {' '.join(bits)} }}")
        return
    out.append(f"{pad}state {state.name} {{")
    for b in bits:
        out.append(f"{pad}  {b}")
    for sub in state.regions:
        _print_region(sub, out, indent + 1)
    out.append(f"{pad}}}")
