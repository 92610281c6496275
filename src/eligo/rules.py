"""Criterion aggregation rule language: parser, evaluator, verdict roll-ups.

Grammar (keywords case-insensitive)::

    expr  := or
    or    := and ("OR" and)*
    and   := unary ("AND" unary)*
    unary := "NOT" unary | "(" expr ")" | atom
    atom  := QID ("IS" | "IS NOT") VALUE
           | ("ANY" | "ALL") "(" QID ("," QID)* ")" "IS" VALUE

Evaluation is two-valued over tri-valued answers: an atom "Q IS NOT YES"
is true when Q is NO *or* UNKNOWN.  Uncertainty is surfaced separately by
the sensitivity analysis, which decides exactly whether the verdict is the
same under every YES/NO completion of the UNKNOWN answers.  It evaluates the
rule in Kleene's three-valued logic and splits on an UNKNOWN answer only
while the result is still undecided, instead of enumerating all 2^k
completions.

A criterion's rule is parsed once, when its catalog is validated at load
(``CriterionSpec.parsed_rule``), and reused for every note.  A rule's
outcome depends only on the answers to the questions it references, so
``criterion_verdict`` memoizes the criterion's verdict on the parsed rule
per answer pattern: a cohort costs one evaluation, one sensitivity analysis
and one verdict object per distinct pattern, not one per note.  A memo hit
costs one ``itemgetter`` call and one dict lookup, as ``verdicts_for_note``
reads a note's answers through a view in which a missing answer is UNKNOWN.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, Union

from .corpus import CriterionKind, CriterionSpec, TrialSpec, Verdict
from .errors import CatalogError, MissingVerdictError, RuleParseError

# Case splitting is exponential in the worst case; beyond this many UNKNOWN
# answers the verdict is reported UNSTABLE with the capped flag instead.
SENSITIVITY_CAP = 16


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    question_id: str
    value: Verdict
    negated: bool = False  # True renders/evaluates as "IS NOT"


@dataclass(frozen=True)
class Not:
    child: "RuleExpr"


@dataclass(frozen=True)
class And:
    children: tuple["RuleExpr", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("AND needs at least one operand")


@dataclass(frozen=True)
class Or:
    children: tuple["RuleExpr", ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("OR needs at least one operand")


@dataclass(frozen=True)
class AnyOf:
    question_ids: tuple[str, ...]
    value: Verdict

    def __post_init__(self):
        if not self.question_ids:
            raise ValueError("ANY needs at least one question id")


@dataclass(frozen=True)
class AllOf:
    question_ids: tuple[str, ...]
    value: Verdict

    def __post_init__(self):
        if not self.question_ids:
            raise ValueError("ALL needs at least one question id")


RuleExpr = Union[Atom, Not, And, Or, AnyOf, AllOf]


# -- tokenizer / parser -------------------------------------------------------

_KEYWORDS = {"AND", "OR", "NOT", "IS", "ANY", "ALL", "YES", "NO", "UNKNOWN"}
_VALUES = {"YES", "NO", "UNKNOWN"}
_TOKEN_RE = re.compile(r"\s*(?:(\()|(\))|(,)|([A-Za-z_][A-Za-z0-9_.\-]*))")


@dataclass(frozen=True)
class _Token:
    kind: str  # LPAREN RPAREN COMMA KEYWORD IDENT EOF
    text: str
    position: int  # 1-based character position


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    index = 0
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        if match is None or match.end() == match.start():
            # Only whitespace consumed, or an unrecognized character.
            stripped = text[index:].lstrip()
            if not stripped:
                break
            position = len(text) - len(stripped) + 1
            raise RuleParseError(
                f"unexpected character {stripped[0]!r}", position, expected="a token"
            )
        index = match.end()
        lparen, rparen, comma, word = match.groups()
        position = match.end() - len(match.group().lstrip()) + 1
        if lparen:
            tokens.append(_Token("LPAREN", "(", position))
        elif rparen:
            tokens.append(_Token("RPAREN", ")", position))
        elif comma:
            tokens.append(_Token("COMMA", ",", position))
        elif word:
            upper = word.upper()
            kind = "KEYWORD" if upper in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, position))
    tokens.append(_Token("EOF", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def fail(self, expected: str):
        token = self.current
        got = "end of rule" if token.kind == "EOF" else repr(token.text)
        raise RuleParseError(f"unexpected {got}", token.position, expected=expected)

    def keyword(self, word: str) -> bool:
        token = self.current
        if token.kind == "KEYWORD" and token.text.upper() == word:
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str):
        if not self.keyword(word):
            self.fail(word)

    def expect(self, kind: str, label: str) -> _Token:
        if self.current.kind != kind:
            self.fail(label)
        return self.advance()

    def value(self) -> Verdict:
        token = self.current
        if token.kind == "KEYWORD" and token.text.upper() in _VALUES:
            self.advance()
            return Verdict(token.text.upper())
        self.fail("VALUE (YES, NO or UNKNOWN)")

    def question_id(self) -> str:
        return self.expect("IDENT", "question id").text

    def parse(self) -> RuleExpr:
        expr = self.or_expr()
        if self.current.kind != "EOF":
            self.fail("AND, OR or end of rule")
        return expr

    def or_expr(self) -> RuleExpr:
        children = [self.and_expr()]
        while self.keyword("OR"):
            children.append(self.and_expr())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def and_expr(self) -> RuleExpr:
        children = [self.unary()]
        while self.keyword("AND"):
            children.append(self.unary())
        return children[0] if len(children) == 1 else And(tuple(children))

    def unary(self) -> RuleExpr:
        if self.keyword("NOT"):
            return Not(self.unary())
        if self.current.kind == "LPAREN":
            self.advance()
            expr = self.or_expr()
            self.expect("RPAREN", "')'")
            return expr
        return self.atom()

    def atom(self) -> RuleExpr:
        token = self.current
        if token.kind == "KEYWORD" and token.text.upper() in ("ANY", "ALL"):
            quantifier = token.text.upper()
            self.advance()
            self.expect("LPAREN", "'('")
            question_ids = [self.question_id()]
            while self.current.kind == "COMMA":
                self.advance()
                question_ids.append(self.question_id())
            self.expect("RPAREN", "')'")
            self.expect_keyword("IS")
            value = self.value()
            cls = AnyOf if quantifier == "ANY" else AllOf
            return cls(tuple(question_ids), value)
        if token.kind != "IDENT":
            self.fail("question id, '(', NOT, ANY or ALL")
        question_id = self.question_id()
        self.expect_keyword("IS")
        negated = self.keyword("NOT")
        return Atom(question_id, self.value(), negated=negated)


def parse_rule(text: str) -> RuleExpr:
    """Parse rule text into an AST; raise RuleParseError with position + hint."""
    return _Parser(_tokenize(text)).parse()


def print_rule(expr: RuleExpr) -> str:
    """Render an AST canonically so that parse(print_rule(e)) == e."""
    if isinstance(expr, Atom):
        op = "IS NOT" if expr.negated else "IS"
        return f"{expr.question_id} {op} {expr.value.value}"
    if isinstance(expr, Not):
        inner = print_rule(expr.child)
        if isinstance(expr.child, (And, Or)):
            inner = f"({inner})"
        return f"NOT {inner}"
    if isinstance(expr, And):
        # Parenthesize Or for precedence, nested And so it does not flatten.
        parts = [
            f"({print_rule(child)})" if isinstance(child, (And, Or)) else print_rule(child)
            for child in expr.children
        ]
        return " AND ".join(parts)
    if isinstance(expr, Or):
        parts = [
            f"({print_rule(child)})" if isinstance(child, Or) else print_rule(child)
            for child in expr.children
        ]
        return " OR ".join(parts)
    if isinstance(expr, AnyOf):
        return f"ANY({', '.join(expr.question_ids)}) IS {expr.value.value}"
    if isinstance(expr, AllOf):
        return f"ALL({', '.join(expr.question_ids)}) IS {expr.value.value}"
    raise TypeError(f"not a rule expression: {expr!r}")


@dataclass(frozen=True)
class ParsedRule:
    """A rule's AST and the sorted ids of the questions it references.

    ``outcomes`` memoizes ``criterion_verdict``'s result, the frozen
    ``CriterionVerdict`` itself, by the tuple of answers to
    ``question_ids``; it grows by one entry per distinct answer pattern
    seen.  ``key`` reads that tuple from an answers view (see
    ``verdicts_for_note``): an ``operator.itemgetter`` over the ids, built
    once, which for a one-id rule still returns a 1-tuple.  The verdict
    names its criterion, so a ParsedRule serves the one criterion that
    parsed it (``CriterionSpec.parsed_rule``) and is not shared between
    criteria, even ones with the same rule text.
    """

    expr: RuleExpr
    question_ids: tuple[str, ...]
    outcomes: dict[tuple[Verdict, ...], "CriterionVerdict"] = field(
        default_factory=dict, compare=False, repr=False
    )
    key: Callable[[Mapping[str, Verdict]], tuple[Verdict, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if len(self.question_ids) == 1:
            (question_id,) = self.question_ids

            def key(answers):
                return (answers[question_id],)
        else:
            key = itemgetter(*self.question_ids)
        object.__setattr__(self, "key", key)

    @classmethod
    def parse(cls, text: str) -> "ParsedRule":
        expr = parse_rule(text)
        return cls(expr, tuple(sorted(referenced_ids(expr))))


def referenced_ids(expr: RuleExpr) -> set[str]:
    if isinstance(expr, Atom):
        return {expr.question_id}
    if isinstance(expr, Not):
        return referenced_ids(expr.child)
    if isinstance(expr, (And, Or)):
        ids: set[str] = set()
        for child in expr.children:
            ids |= referenced_ids(child)
        return ids
    return set(expr.question_ids)


def rename_questions(expr: RuleExpr, mapping: Mapping[str, str]) -> RuleExpr:
    """Return a copy of the expression with question ids substituted."""
    if isinstance(expr, Atom):
        return Atom(mapping.get(expr.question_id, expr.question_id), expr.value, expr.negated)
    if isinstance(expr, Not):
        return Not(rename_questions(expr.child, mapping))
    if isinstance(expr, And):
        return And(tuple(rename_questions(child, mapping) for child in expr.children))
    if isinstance(expr, Or):
        return Or(tuple(rename_questions(child, mapping) for child in expr.children))
    ids = tuple(mapping.get(question_id, question_id) for question_id in expr.question_ids)
    return type(expr)(ids, expr.value)


# -- evaluation ---------------------------------------------------------------

def eval_rule(expr: RuleExpr, answers: Mapping[str, Verdict]) -> bool:
    """Two-valued evaluation; missing answers count as UNKNOWN."""
    if isinstance(expr, Atom):
        hit = answers.get(expr.question_id, Verdict.UNKNOWN) is expr.value
        return not hit if expr.negated else hit
    if isinstance(expr, Not):
        return not eval_rule(expr.child, answers)
    if isinstance(expr, And):
        return all(eval_rule(child, answers) for child in expr.children)
    if isinstance(expr, Or):
        return any(eval_rule(child, answers) for child in expr.children)
    if isinstance(expr, AnyOf):
        return any(answers.get(q, Verdict.UNKNOWN) is expr.value for q in expr.question_ids)
    if isinstance(expr, AllOf):
        return all(answers.get(q, Verdict.UNKNOWN) is expr.value for q in expr.question_ids)
    raise TypeError(f"not a rule expression: {expr!r}")


# -- sensitivity --------------------------------------------------------------

class Stability(str, Enum):
    STABLE = "STABLE"
    UNSTABLE = "UNSTABLE"


@dataclass(frozen=True)
class SensitivityResult:
    status: Stability
    unknown_count: int
    capped: bool = False


def sensitivity(
    expr: RuleExpr | ParsedRule, answers: Mapping[str, Verdict]
) -> SensitivityResult:
    """Check whether the verdict survives every YES/NO completion of UNKNOWNs.

    Exact over the k UNKNOWN answers the expression references (missing
    answers count as UNKNOWN), without enumerating the 2^k completions: the
    rule is evaluated in Kleene's three-valued logic, and an UNKNOWN answer
    is split into YES and NO only while the result is still undecided.  The
    search stops at the first branch whose completions disagree.  Beyond
    SENSITIVITY_CAP unknowns the result defaults to UNSTABLE with the capped
    flag set.  A ParsedRule saves collecting the referenced ids again.
    """
    if isinstance(expr, ParsedRule):
        expr, question_ids = expr.expr, expr.question_ids
    else:
        question_ids = sorted(referenced_ids(expr))
    known: dict[str, Verdict] = {}
    k = 0
    for question_id in question_ids:
        value = answers.get(question_id, Verdict.UNKNOWN)
        if value is Verdict.UNKNOWN:
            k += 1
        else:
            known[question_id] = value
    if k == 0:
        return SensitivityResult(Stability.STABLE, unknown_count=0)
    if k > SENSITIVITY_CAP:
        return SensitivityResult(Stability.UNSTABLE, unknown_count=k, capped=True)
    stable = _settle(expr, known) is not None
    return SensitivityResult(
        Stability.STABLE if stable else Stability.UNSTABLE, unknown_count=k
    )


def _settle(expr: RuleExpr, known: dict[str, Verdict]) -> bool | None:
    """The value shared by every YES/NO completion of the free answers, else None.

    ``known`` holds the YES/NO answers; every other referenced question is
    free.  It is extended while splitting and restored before returning.
    """
    value = _kleene(expr, known)
    if isinstance(value, bool):
        return value
    known[value] = Verdict.YES
    outcome = _settle(expr, known)
    if outcome is not None:
        known[value] = Verdict.NO
        if _settle(expr, known) != outcome:
            outcome = None
    del known[value]
    return outcome


def _kleene(expr: RuleExpr, known: Mapping[str, Verdict]) -> bool | str:
    """Strong Kleene evaluation over the YES/NO completions of the free answers.

    Returns True or False when every completion gives that value, and
    otherwise the id of a free question the value still depends on.  A
    completion answers only YES or NO, so "Q IS UNKNOWN" is False for a
    free Q as much as for a known one.
    """
    if isinstance(expr, Atom):
        answer = known.get(expr.question_id)
        if answer is None:
            if expr.value is not Verdict.UNKNOWN:
                return expr.question_id
            hit = False
        else:
            hit = answer is expr.value
        return hit != expr.negated
    if isinstance(expr, Not):
        value = _kleene(expr.child, known)
        return value if isinstance(value, str) else not value
    if isinstance(expr, (And, Or)):
        # An AND is settled by one False child, an OR by one True child.
        decisive = isinstance(expr, Or)
        pending = None
        for child in expr.children:
            value = _kleene(child, known)
            if value is decisive:
                return decisive
            if pending is None and isinstance(value, str):
                pending = value
        return not decisive if pending is None else pending
    if isinstance(expr, (AnyOf, AllOf)):
        if expr.value is Verdict.UNKNOWN:
            return False
        # ANY is settled by one matching answer, ALL by one that differs.
        decisive = isinstance(expr, AnyOf)
        pending = None
        for question_id in expr.question_ids:
            answer = known.get(question_id)
            if answer is None:
                if pending is None:
                    pending = question_id
            elif (answer is expr.value) is decisive:
                return decisive
        return not decisive if pending is None else pending
    raise TypeError(f"not a rule expression: {expr!r}")


# -- criterion / trial verdicts -----------------------------------------------

@dataclass(frozen=True)
class CriterionVerdict:
    criterion_id: str
    kind: CriterionKind
    met: bool
    stable: bool

    def passes(self) -> bool:
        """True when this verdict does not block eligibility."""
        return self.met if self.kind is CriterionKind.INCLUSION else not self.met


class TrialStatus(str, Enum):
    ELIGIBLE = "ELIGIBLE"
    INELIGIBLE = "INELIGIBLE"
    UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class TrialVerdict:
    trial_id: str
    status: TrialStatus
    failing: tuple[str, ...]


_VERDICT_ONLY = frozenset({Verdict})


class _Answers(dict):
    """One note's answers by question id, in which a missing answer is UNKNOWN.

    ``memoizable`` is True when every answer is a ``Verdict`` member.
    """

    __slots__ = ("memoizable",)

    def __missing__(self, question_id: str) -> Verdict:
        return Verdict.UNKNOWN


def _answers_view(answers: Mapping[str, Verdict]) -> _Answers:
    view = _Answers(answers)
    view.memoizable = _VERDICT_ONLY.issuperset(map(type, view.values()))
    return view


def criterion_verdict(
    criterion: CriterionSpec, answers: Mapping[str, Verdict]
) -> CriterionVerdict:
    """Evaluate one criterion's rule and its stability under UNKNOWN flips.

    The verdict is looked up in the rule's memo by the answers to its
    questions (``ParsedRule.key``), a missing answer counted as UNKNOWN as
    the evaluators count it, so notes that repeat a pattern share one
    frozen verdict.  A plain mapping is first copied into the view that
    ``verdicts_for_note`` builds once per note, so both share one memo.
    Only notes whose answers are all ``Verdict`` members are memoized: a
    plain string equals its member but the evaluators match by identity, so
    such a note is evaluated afresh instead of sharing the member's entry.
    """
    if not criterion.rule_text:
        raise CatalogError(
            f"criterion {criterion.criterion_id!r} has no rule to evaluate"
        )
    if type(answers) is not _Answers:
        answers = _answers_view(answers)
    rule = criterion.parsed_rule
    if not answers.memoizable:
        return _evaluate(criterion, rule, answers)
    key = rule.key(answers)
    verdict = rule.outcomes.get(key)
    if verdict is None:
        verdict = rule.outcomes[key] = _evaluate(criterion, rule, answers)
    return verdict


def _evaluate(criterion: CriterionSpec, rule: ParsedRule,
              answers: Mapping[str, Verdict]) -> CriterionVerdict:
    return CriterionVerdict(
        criterion_id=criterion.criterion_id,
        kind=criterion.kind,
        met=eval_rule(rule.expr, answers),
        stable=sensitivity(rule, answers).status is Stability.STABLE,
    )


def verdicts_for_note(
    criteria: Iterable[CriterionSpec], answers: Mapping[str, Verdict]
) -> list[CriterionVerdict]:
    """Criterion verdicts for one note's answers, in the order of ``criteria``.

    The answers are copied once into a view in which a missing answer reads
    as UNKNOWN, and each criterion's verdict comes from criterion_verdict,
    which looks the view up in its rule's memo without copying it again.
    """
    answers = _answers_view(answers)
    return [criterion_verdict(criterion, answers) for criterion in criteria]


def trial_verdict(
    trial: TrialSpec,
    verdicts: Iterable[CriterionVerdict] | Mapping[str, CriterionVerdict],
) -> TrialVerdict:
    """Roll criterion verdicts up to one trial status.

    ELIGIBLE only when every criterion passes on a stable verdict;
    INELIGIBLE when some criterion fails on a stable verdict; otherwise the
    outcome hinges on unstable verdicts and is UNDETERMINED.  ``verdicts``
    may be given indexed by criterion id, so that a note's verdicts are
    indexed once for all of its trials.
    """
    if isinstance(verdicts, Mapping):
        by_id = verdicts
    else:
        by_id = {verdict.criterion_id: verdict for verdict in verdicts}
    failing: list[str] = []
    any_unstable = False
    for criterion_id in trial.criterion_ids:
        verdict = by_id.get(criterion_id)
        if verdict is None:
            raise MissingVerdictError(criterion_id)
        if not verdict.passes():
            failing.append(criterion_id)
        if not verdict.stable:
            any_unstable = True
    if any(by_id[criterion_id].stable for criterion_id in failing):
        status = TrialStatus.INELIGIBLE
    elif failing or any_unstable:
        status = TrialStatus.UNDETERMINED
    else:
        status = TrialStatus.ELIGIBLE
    return TrialVerdict(trial.trial_id, status, tuple(failing))
