"""Parser and pretty-printer for the .psm model and .scn scenario formats.

Hand-rolled recursive descent over a small token stream. Every diagnostic
carries a SourceSpan; on a syntax error the parser records it and skips to
the next ';' or block boundary, so one bad statement never hides the rest of
the file. parse_model also runs model validation, meaning a ParseResult with
ok=True always holds an executable model.

Example::

    result = parse_model(text, "demo.psm")
    if not result.ok:
        for err in result.errors:
            print(err)
    else:
        machine = result.model
"""

from __future__ import annotations

import os

from dataclasses import dataclass, field
from typing import Optional, Union

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


@dataclass(frozen=True)
class Token:
    kind: str        # "ident", "int", "eof", or the punctuation text itself
    text: str
    line: int
    column: int

    def span(self, file: str) -> M.SourceSpan:
        return M.SourceSpan(file, self.line, self.column, max(1, len(self.text)))


@dataclass(frozen=True)
class ParseError:
    code: str
    message: str
    span: Optional[M.SourceSpan] = field(default=None, compare=False)

    def __str__(self) -> str:
        where = f" at {self.span.label()}" if self.span else ""
        return f"{self.code}: {self.message}{where}"


Diagnostic = Union[ParseError, M.ModelError]


@dataclass
class ParseResult:
    model: Optional[M.MachineModel]
    errors: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.model is not None and not self.errors


@dataclass
class ScenarioResult:
    scenario: Optional[S.Scenario]
    errors: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.scenario is not None and not self.errors


class ParseFailure(Exception):
    def __init__(self, errors: list[Diagnostic]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


# --- lexer -------------------------------------------------------------------


def _lex(text: str, file: str, errors: list[Diagnostic]) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            errors.append(ParseError("BadCharacter", f"unexpected character {ch!r}",
                                     M.SourceSpan(file, line, col)))
            i += 1
            col += 1
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- token cursor ------------------------------------------------------------


class _Cursor:
    def __init__(self, tokens: list[Token], file: str, errors: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.file = file
        self.errors = errors

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def at_keyword(self, word: str) -> bool:
        return self.at("ident", word)

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, code: str, message: str, tok: Optional[Token] = None) -> None:
        tok = tok or self.peek()
        self.errors.append(ParseError(code, message, tok.span(self.file)))

    def expect(self, kind: str, what: str) -> Optional[Token]:
        if self.at(kind):
            return self.advance()
        got = self.peek()
        shown = got.text or "end of file"
        self.error("Expected", f"expected {what}, got {shown!r}")
        raise _Recover()

    def expect_ident(self, what: str) -> str:
        tok = self.expect("ident", what)
        assert tok is not None
        if tok.text in KEYWORDS:
            self.error("Expected", f"expected {what}, got keyword {tok.text!r}", tok)
            raise _Recover()
        return tok.text

    def expect_keyword(self, word: str) -> Token:
        if self.at_keyword(word):
            return self.advance()
        got = self.peek()
        self.error("Expected", f"expected {word!r}, got {got.text or 'end of file'!r}")
        raise _Recover()

    def skip_to_boundary(self) -> None:
        """Panic-mode recovery: consume through the next ';' or to a '}'/eof."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "{":
                depth += 1
            elif tok.kind == "}":
                if depth == 0:
                    return
                depth -= 1
            elif tok.kind == ";" and depth == 0:
                self.advance()
                return
            self.advance()


class _Recover(Exception):
    pass


# --- model grammar -----------------------------------------------------------


def parse_model(text: str, file: str = "<string>") -> ParseResult:
    errors: list[Diagnostic] = []
    tokens = _lex(text, file, errors)
    cur = _Cursor(tokens, file, errors)
    machine: Optional[M.MachineModel] = None
    try:
        machine = _parse_machine(cur)
    except _Recover:
        cur.skip_to_boundary()
    if machine is not None and not errors:
        errors.extend(M.validate(machine))
    if errors:
        return ParseResult(None, errors)
    return ParseResult(machine, [])


def load_model(path: "str | os.PathLike[str]") -> M.MachineModel:
    """Parse a machine file, raising ParseFailure on any diagnostic."""
    with open(path, encoding="utf-8") as fh:
        result = parse_model(fh.read(), str(path))
    if not result.ok:
        raise ParseFailure(result.errors)
    assert result.model is not None
    return result.model


def _parse_machine(cur: _Cursor) -> M.MachineModel:
    head = cur.expect_keyword("machine")
    name = cur.expect_ident("machine name")
    cur.expect("{", "'{'")
    signals: list[str] = []
    variables: list[str] = []
    regions: list[M.Region] = []
    activities: list[M.Activity] = []
    while not cur.at("}") and not cur.at("eof"):
        try:
            if cur.at_keyword("signals"):
                cur.advance()
                signals.extend(_parse_name_list(cur))
                cur.expect(";", "';'")
            elif cur.at_keyword("vars"):
                cur.advance()
                variables.extend(_parse_name_list(cur))
                cur.expect(";", "';'")
            elif cur.at_keyword("activity"):
                activities.append(_parse_activity(cur))
            elif cur.at_keyword("region"):
                regions.append(_parse_region(cur))
            else:
                cur.error("Expected", f"expected signals/vars/activity/region, got {cur.peek().text!r}")
                raise _Recover()
        except _Recover:
            cur.skip_to_boundary()
    cur.expect("}", "'}'")
    return M.MachineModel(name, tuple(signals), tuple(variables),
                          tuple(regions), tuple(activities),
                          span=head.span(cur.file))


def _parse_name_list(cur: _Cursor) -> list[str]:
    names = [cur.expect_ident("name")]
    while cur.at(","):
        cur.advance()
        names.append(cur.expect_ident("name"))
    return names


def _parse_region(cur: _Cursor) -> M.Region:
    head = cur.expect_keyword("region")
    name = cur.expect_ident("region name")
    cur.expect("{", "'{'")
    vertices: list[M.Vertex] = []
    transitions: list[M.Transition] = []
    while not cur.at("}") and not cur.at("eof"):
        try:
            if cur.at_keyword("initial"):
                tok = cur.advance()
                cur.expect("->", "'->'")
                target = cur.expect_ident("initial target")
                effect = None
                if cur.at("/"):
                    cur.advance()
                    effect = cur.expect_ident("effect activity")
                cur.expect(";", "';'")
                vertices.append(M.InitialPseudostate(span=tok.span(cur.file)))
                transitions.append(M.Transition(
                    name=f"initial_{name}", source="", target=target,
                    kind=M.TransitionKind.EXTERNAL, effect=effect,
                    is_initial=True, span=tok.span(cur.file)))
            elif cur.at_keyword("state"):
                vertices.append(_parse_state(cur))
            elif cur.at_keyword("final"):
                tok = cur.advance()
                vname = cur.expect_ident("final state name")
                cur.expect(";", "';'")
                vertices.append(M.FinalState(vname, span=tok.span(cur.file)))
            elif cur.at_keyword("transition") or cur.at_keyword("internal"):
                transitions.append(_parse_transition(cur))
            else:
                cur.error("Expected", f"expected a vertex or transition, got {cur.peek().text!r}")
                raise _Recover()
        except _Recover:
            cur.skip_to_boundary()
    cur.expect("}", "'}'")
    return M.Region(name, tuple(vertices), tuple(transitions), span=head.span(cur.file))


def _parse_state(cur: _Cursor) -> M.State:
    head = cur.expect_keyword("state")
    name = cur.expect_ident("state name")
    entry = exit_ = do = None
    defer: list[str] = []
    regions: list[M.Region] = []
    cur.expect("{", "'{'")
    while not cur.at("}") and not cur.at("eof"):
        try:
            if cur.at_keyword("entry"):
                cur.advance()
                entry = cur.expect_ident("entry activity")
                cur.expect(";", "';'")
            elif cur.at_keyword("exit"):
                cur.advance()
                exit_ = cur.expect_ident("exit activity")
                cur.expect(";", "';'")
            elif cur.at_keyword("do"):
                cur.advance()
                do = cur.expect_ident("do activity")
                cur.expect(";", "';'")
            elif cur.at_keyword("defer"):
                cur.advance()
                defer.extend(_parse_name_list(cur))
                cur.expect(";", "';'")
            elif cur.at_keyword("region"):
                regions.append(_parse_region(cur))
            else:
                cur.error("Expected", f"expected entry/exit/do/defer/region, got {cur.peek().text!r}")
                raise _Recover()
        except _Recover:
            cur.skip_to_boundary()
    cur.expect("}", "'}'")
    return M.State(name, entry=entry, exit=exit_, do_activity=do,
                   defer=tuple(defer), regions=tuple(regions),
                   span=head.span(cur.file))


def _parse_transition(cur: _Cursor) -> M.Transition:
    head = cur.advance()  # "transition" or "internal"
    internal = head.text == "internal"
    name = cur.expect_ident("transition name")
    cur.expect(":", "':'")
    source = cur.expect_ident("source state")
    target = source
    if internal:
        kind = M.TransitionKind.INTERNAL
    else:
        cur.expect("->", "'->'")
        target = cur.expect_ident("target state")
        kind = M.TransitionKind.EXTERNAL
    trigger = None
    if cur.at_keyword("on"):
        cur.advance()
        trigger = cur.expect_ident("trigger signal")
    elif not internal:
        kind = M.TransitionKind.COMPLETION
    guard = None
    if cur.at("["):
        guard = _parse_guard(cur)
    effect = None
    if cur.at("/"):
        cur.advance()
        effect = cur.expect_ident("effect activity")
    cur.expect(";", "';'")
    return M.Transition(name=name, source=source, target=target, kind=kind,
                        trigger=trigger, guard=guard, effect=effect,
                        span=head.span(cur.file))


def _parse_guard(cur: _Cursor) -> M.Guard:
    cur.expect("[", "'['")
    var = cur.expect_ident("guard variable")
    op_tok = cur.advance()
    if op_tok.text not in M.GUARD_OPS:
        cur.error("Expected", f"expected comparison operator, got {op_tok.text!r}", op_tok)
        raise _Recover()
    literal = _parse_int(cur)
    cur.expect("]", "']'")
    return M.Guard(var, op_tok.text, literal)


def _parse_int(cur: _Cursor) -> int:
    negative = False
    if cur.at("-"):
        cur.advance()
        negative = True
    tok = cur.expect("int", "integer literal")
    assert tok is not None
    value = int(tok.text)
    return -value if negative else value


def _parse_activity(cur: _Cursor) -> M.Activity:
    head = cur.expect_keyword("activity")
    name = cur.expect_ident("activity name")
    body = _parse_block(cur)
    return M.Activity(name, body, span=head.span(cur.file))


def _parse_block(cur: _Cursor) -> tuple[M.Node, ...]:
    cur.expect("{", "'{'")
    nodes: list[M.Node] = []
    while not cur.at("}") and not cur.at("eof"):
        try:
            nodes.append(_parse_node(cur))
        except _Recover:
            cur.skip_to_boundary()
    cur.expect("}", "'}'")
    return tuple(nodes)


def _parse_node(cur: _Cursor) -> M.Node:
    tok = cur.peek()
    span = tok.span(cur.file)
    if cur.at_keyword("task"):
        cur.advance()
        label = cur.expect_ident("task label")
        cur.expect(";", "';'")
        return M.Task(label, span=span)
    if cur.at_keyword("send"):
        cur.advance()
        signal = cur.expect_ident("signal name")
        cur.expect_keyword("to")
        if cur.at_keyword("env"):
            cur.advance()
            to_env = True
        else:
            cur.expect_keyword("self")
            to_env = False
        cur.expect(";", "';'")
        return M.SendSignal(signal, to_env, span=span)
    if cur.at_keyword("accept"):
        cur.advance()
        signals = [cur.expect_ident("signal name")]
        while cur.at("|"):
            cur.advance()
            signals.append(cur.expect_ident("signal name"))
        cur.expect(";", "';'")
        return M.AcceptEvent(tuple(signals), span=span)
    if cur.at_keyword("par"):
        cur.advance()
        branches = [_parse_block(cur)]
        while cur.at_keyword("and"):
            cur.advance()
            branches.append(_parse_block(cur))
        if cur.at(";"):  # tolerated, not required
            cur.advance()
        return M.Par(tuple(branches), span=span)
    if cur.at_keyword("final"):
        cur.advance()
        cur.expect(";", "';'")
        return M.FinalNode(span=span)
    if cur.at("ident") and tok.text not in KEYWORDS:
        # bare assignment statement:  x := y + 1;
        target = cur.expect_ident("variable")
        cur.expect(":=", "':='")
        left = _parse_term(cur)
        op = None
        right = None
        if cur.at("+") or cur.at("-"):
            op = cur.advance().text
            right = _parse_term(cur)
        cur.expect(";", "';'")
        assignment = M.Assignment(target, left, op, right)
        return M.Task(assignment.text(), assignment=assignment, span=span)
    cur.error("Expected", f"expected an activity statement, got {tok.text or 'end of file'!r}")
    raise _Recover()


def _parse_term(cur: _Cursor) -> Union[str, int]:
    if cur.at("int") or cur.at("-"):
        return _parse_int(cur)
    return cur.expect_ident("variable or integer")


# --- scenario grammar ---------------------------------------------------------


def parse_scenario(text: str, machine: M.MachineModel,
                   file: str = "<string>") -> ScenarioResult:
    errors: list[Diagnostic] = []
    tokens = _lex(text, file, errors)
    cur = _Cursor(tokens, file, errors)
    scenario: Optional[S.Scenario] = None
    try:
        scenario = _parse_scenario_body(cur, machine)
    except _Recover:
        cur.skip_to_boundary()
    if errors:
        return ScenarioResult(None, errors)
    return ScenarioResult(scenario, [])


def load_scenario(path: "str | os.PathLike[str]", machine: M.MachineModel) -> S.Scenario:
    """Parse a scenario file against a machine, raising ParseFailure on any
    diagnostic."""
    with open(path, encoding="utf-8") as fh:
        result = parse_scenario(fh.read(), machine, str(path))
    if not result.ok:
        raise ParseFailure(result.errors)
    assert result.scenario is not None
    return result.scenario


def _state_refs(machine: M.MachineModel) -> set[str]:
    """The ways a scenario may name a state: its bare name, or its full
    dotted vertex path from a root region."""
    refs: set[str] = set()

    def walk(region: M.Region, path: str) -> None:
        for v in region.vertices:
            if isinstance(v, (M.State, M.FinalState)):
                refs.update((v.name, f"{path}.{v.name}"))
            if isinstance(v, M.State):
                for sub in v.regions:
                    walk(sub, f"{path}.{v.name}.{sub.name}")

    for region in machine.regions:
        walk(region, region.name)
    return refs


def _parse_scenario_body(cur: _Cursor, machine: M.MachineModel) -> S.Scenario:
    head = cur.expect_keyword("scenario")
    name = cur.expect_ident("scenario name")
    cur.expect("{", "'{'")
    steps: list[S.Step] = []
    expectations: list[S.Expectation] = []
    signals = set(machine.signals)
    states = _state_refs(machine)
    while not cur.at("}") and not cur.at("eof"):
        try:
            tok = cur.peek()
            span = tok.span(cur.file)
            if cur.at_keyword("inject"):
                cur.advance()
                sig = cur.expect_ident("signal name")
                if sig not in signals:
                    cur.error("UnknownReference", f"injected signal {sig!r} is not declared by machine {machine.name!r}", tok)
                cur.expect(";", "';'")
                steps.append(S.Inject(sig, span=span))
            elif cur.at_keyword("await"):
                cur.advance()
                cur.expect("-", "'-'")
                cur.expect_keyword("stable")
                cur.expect(";", "';'")
                steps.append(S.AwaitStable(span=span))
            elif cur.at_keyword("expect"):
                cur.advance()
                expectations.append(_parse_expectation(cur, signals, states, span))
            else:
                cur.error("Expected", f"expected inject/await-stable/expect, got {tok.text!r}")
                raise _Recover()
        except _Recover:
            cur.skip_to_boundary()
    cur.expect("}", "'}'")
    return S.Scenario(name, tuple(steps), tuple(expectations), span=head.span(cur.file))


def _parse_expectation(cur: _Cursor, signals: set[str], states: set[str],
                       span: M.SourceSpan) -> S.Expectation:
    if cur.at_keyword("eventually"):
        cur.advance()
        cur.expect("-", "'-'")
        cur.expect_keyword("active")
        parts = [cur.expect_ident("state name")]
        while cur.at("."):
            cur.advance()
            parts.append(cur.expect_ident("state name"))
        cur.expect(";", "';'")
        ref = ".".join(parts)
        if ref not in states:
            cur.error("UnknownReference", f"state {ref!r} not found in the machine")
            raise _Recover()
        return S.EventuallyActive(ref, span=span)
    if cur.at_keyword("emits"):
        cur.advance()
        seq: list[str] = []
        if not cur.at(";"):
            seq.append(cur.expect_ident("signal name"))
            while cur.at(","):
                cur.advance()
                seq.append(cur.expect_ident("signal name"))
        cur.expect(";", "';'")
        for sig in seq:
            if sig not in signals:
                cur.error("UnknownReference", f"expected signal {sig!r} is not declared")
                raise _Recover()
        return S.Emits(tuple(seq), span=span)
    if cur.at_keyword("never"):
        cur.advance()
        cur.expect("-", "'-'")
        cur.expect_keyword("discards")
        sig = cur.expect_ident("signal name")
        cur.expect(";", "';'")
        if sig not in signals:
            cur.error("UnknownReference", f"signal {sig!r} is not declared")
            raise _Recover()
        return S.NeverDiscards(sig, span=span)
    cur.error("Expected", f"expected an expectation kind, got {cur.peek().text!r}")
    raise _Recover()


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
