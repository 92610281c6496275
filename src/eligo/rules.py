"""Criterion aggregation rule language: parser, evaluator, verdict roll-ups.

Grammar (keywords case-insensitive)::

    expr  := or
    or    := and ("OR" and)*
    and   := unary ("AND" unary)*
    unary := "NOT" unary | "(" expr ")" | atom
    atom  := QID ("IS" | "IS NOT") VALUE
           | ("ANY" | "ALL") "(" QID ("," QID)* ")" "IS" VALUE

Evaluation is two-valued over tri-valued answers: an atom "Q IS NOT YES"
is true when Q is NO *or* UNKNOWN.  Uncertainty is surfaced separately: a
verdict is STABLE when every YES/NO completion of the UNKNOWN answers gives
the rule one value, which is not compared with the two-valued one.  One
pass (``_eval``) computes both that value and the strong Kleene value.
For a read-once rule, which tests no question for YES or NO twice, the
Kleene value is exact: each UNKNOWN answer sits in one leaf, apart from
the others.  Any other rule splits an UNKNOWN answer into YES and NO only
while the Kleene value is still undecided, not over all 2^k completions.
A decided Kleene value is STABLE however many answers are UNKNOWN; an
undecided one with more than ``SENSITIVITY_CAP`` of them is UNSTABLE and
capped, without a split.

A criterion's rule is parsed once, when its catalog is validated at load
(``CriterionSpec.parsed_rule``), and reused for every note.  A rule's
outcome depends only on the answers to the questions it references, so
``criterion_verdict`` memoizes the criterion's verdict on the parsed rule
per answer pattern: a cohort costs one pass per distinct pattern, not one
per note.  A memo hit costs one ``itemgetter`` call and one dict lookup, as
``verdicts_for_note`` reads a note's answers through a view in which a
missing answer is UNKNOWN.  Every answer must be a ``Verdict`` member: the
evaluators match answers by identity, so each entry point raises TypeError,
naming the question, for any other value.
"""

import re
from collections.abc import Container, Mapping
from enum import Enum
from operator import itemgetter
from typing import Iterable, NamedTuple, Union

from .corpus import CriterionKind, CriterionSpec, TrialSpec, Verdict, refuse_assignment
from .errors import CatalogError, MissingVerdictError, RuleParseError

# Case splitting is exponential in the worst case; an undecided rule with
# more UNKNOWN answers than this is reported UNSTABLE with the capped flag.
SENSITIVITY_CAP = 16

# The parser and every walk over a rule recurse once per level, so a rule
# nested deeper than this, counting each "(" and NOT, is a parse error
# rather than a RecursionError.
MAX_RULE_DEPTH = 100

# The answer values, bound once: reading a member off its Enum class costs
# more than the evaluation step that tests it.
YES, NO, UNKNOWN = Verdict.YES, Verdict.NO, Verdict.UNKNOWN


# -- AST ----------------------------------------------------------------------

class Atom(NamedTuple):
    """One question tested for one value: ``q IS YES`` or ``q IS NOT YES``."""

    question_id: str
    value: Verdict
    negated: bool = False  # True renders/evaluates as "IS NOT"


class Not(NamedTuple):
    """The negation of a rule expression."""

    child: "RuleExpr"


class _Operands(NamedTuple):
    children: tuple["RuleExpr", ...]


class And(_Operands):
    """True when every operand is true."""

    __slots__ = ()

    def __new__(cls, children: tuple["RuleExpr", ...]):
        if not children:
            raise ValueError("AND needs at least one operand")
        return tuple.__new__(cls, (children,))


class Or(_Operands):
    """True when any operand is true."""

    __slots__ = ()

    def __new__(cls, children: tuple["RuleExpr", ...]):
        if not children:
            raise ValueError("OR needs at least one operand")
        return tuple.__new__(cls, (children,))


class _Quantified(NamedTuple):
    question_ids: tuple[str, ...]
    value: Verdict


class AnyOf(_Quantified):
    """``ANY(q1, q2, ...) IS v``: true when some listed question has value v."""

    __slots__ = ()

    def __new__(cls, question_ids: tuple[str, ...], value: Verdict):
        if not question_ids:
            raise ValueError("ANY needs at least one question id")
        return tuple.__new__(cls, (question_ids, value))


class AllOf(_Quantified):
    """``ALL(q1, q2, ...) IS v``: true when every listed question has value v."""

    __slots__ = ()

    def __new__(cls, question_ids: tuple[str, ...], value: Verdict):
        if not question_ids:
            raise ValueError("ALL needs at least one question id")
        return tuple.__new__(cls, (question_ids, value))


def _same_node(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def _other_node(self, other) -> bool:
    return not _same_node(self, other)


# A tuple equals any tuple of equal items, but a node only a node of its own
# class: And and Or share one layout, as do AnyOf and AllOf.
for _node in (Atom, Not, _Operands, _Quantified):
    _node.__eq__, _node.__ne__ = _same_node, _other_node


RuleExpr = Union[Atom, Not, And, Or, AnyOf, AllOf]


# -- tokenizer / parser -------------------------------------------------------

_KEYWORDS = {"AND", "OR", "NOT", "IS", "ANY", "ALL", "YES", "NO", "UNKNOWN"}
_VALUES = {"YES", "NO", "UNKNOWN"}
# A question id: a letter, digit or "_", then letters, digits, "_", "." or "-".
IDENTIFIER_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*")
_TOKEN_RE = re.compile(rf"\s*(?:([(),])|({IDENTIFIER_RE.pattern})|(\S))")
# The binary operators, loosest first: an OR chain's operands are AND chains.
_CHAINS = (("OR", Or), ("AND", And))


class _Token(NamedTuple):
    """One lexical token of a rule, with its position for error messages."""

    kind: str  # the mark "(", ")" or ",", the upper-cased keyword, IDENT or EOF
    text: str
    position: int  # 1-based character position


def _tokenize(text: str) -> list[_Token]:
    """Split rule text into tokens, the last of them EOF at ``len(text) + 1``.

    A character that starts no token raises RuleParseError at its own
    position.  The scan stops at the trailing whitespace, where no token
    matches, so that ``finditer`` does not retry there at every character.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        mark, word, stray = match.groups()
        position = match.start(match.lastindex) + 1
        if stray:
            raise RuleParseError(f"unexpected character {stray!r}", position,
                                 expected="a token")
        kind = mark or (word.upper() if word.upper() in _KEYWORDS else "IDENT")
        tokens.append(_Token(kind, mark or word, position))
    tokens.append(_Token("EOF", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def take(self, kinds: Container[str], expected: str | None = None) -> _Token | None:
        """Step past and return the next token if its kind is in ``kinds``.

        Otherwise return None, or, when ``expected`` names what the grammar
        allows here, raise RuleParseError at the token.
        """
        token = self.tokens[self.index]
        if token.kind in kinds:
            self.index += 1
            return token
        if expected:
            got = "end of rule" if token.kind == "EOF" else repr(token.text)
            raise RuleParseError(f"unexpected {got}", token.position, expected=expected)
        return None

    def parse(self) -> RuleExpr:
        expr = self.chain()
        self.take(("EOF",), "AND, OR or end of rule")
        return expr

    def chain(self, level: int = 0) -> RuleExpr:
        """``operand (OP operand)*`` for ``_CHAINS[level]``'s OP, whose operands
        are the next level's chains, or unaries below the last level."""
        if level == len(_CHAINS):
            return self.unary()
        keyword, node = _CHAINS[level]
        children = [self.chain(level + 1)]
        while self.take((keyword,)):
            children.append(self.chain(level + 1))
        return children[0] if len(children) == 1 else node(tuple(children))

    def unary(self) -> RuleExpr:
        token = self.take(("NOT", "("))
        if token is None:
            return self.atom()
        if self.depth == MAX_RULE_DEPTH:
            raise RuleParseError(f"rule nested deeper than {MAX_RULE_DEPTH} levels",
                                 token.position)
        self.depth += 1
        if token.kind == "NOT":
            expr = Not(self.unary())
        else:
            expr = self.chain()
            self.take((")",), "')'")
        self.depth -= 1
        return expr

    def value(self) -> Verdict:
        return Verdict(self.take(_VALUES, "VALUE (YES, NO or UNKNOWN)").kind)

    def atom(self) -> RuleExpr:
        quantifier = self.take(("ANY", "ALL"))
        if quantifier:
            self.take(("(",), "'('")
            question_ids = [self.take(("IDENT",), "question id").text]
            while self.take((",",)):
                question_ids.append(self.take(("IDENT",), "question id").text)
            self.take((")",), "')'")
            self.take(("IS",), "IS")
            cls = AnyOf if quantifier.kind == "ANY" else AllOf
            return cls(tuple(question_ids), self.value())
        question_id = self.take(("IDENT",), "question id, '(', NOT, ANY or ALL").text
        self.take(("IS",), "IS")
        negated = self.take(("NOT",)) is not None
        return Atom(question_id, self.value(), negated)


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


class _RuleFields(NamedTuple):
    expr: RuleExpr
    question_ids: tuple[str, ...]


class ParsedRule(_RuleFields):
    """A rule's AST and the sorted ids of the questions it references.

    ``outcomes`` memoizes ``criterion_verdict``'s result, the immutable
    ``CriterionVerdict`` itself, by the answers to ``question_ids``; it
    grows by one entry per distinct answer pattern seen, each value one of
    the criterion's ``verdicts`` by (met, stable).  ``key`` reads the memo
    key from an answers view (see ``verdicts_for_note``): an
    ``operator.itemgetter`` over the ids, built once, so the key is the
    tuple of answers, or for a one-id rule the one answer.  The verdict
    names its criterion, so a ParsedRule serves the one criterion that
    parsed it (``CriterionSpec.parsed_rule``) and is not shared between
    criteria, even ones with the same rule text.  ``read_once`` is True
    when no atom or ANY/ALL list tests an id for YES or NO that another
    one tests; every completion gives "IS UNKNOWN" one value.  Equality,
    hashing and ``repr`` read ``expr`` and ``question_ids`` only.
    """

    __setattr__ = refuse_assignment

    def __new__(cls, expr: RuleExpr, question_ids: tuple[str, ...]):
        self = tuple.__new__(cls, (expr, question_ids))
        tested = _tested_ids(expr)
        self.__dict__.update(outcomes={}, verdicts={}, key=itemgetter(*question_ids),
                             read_once=len(tested) == len(set(tested)))
        return self

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


def _tested_ids(expr: RuleExpr) -> list[str]:
    """The ids that atoms and ANY/ALL lists test for YES or NO, once per test."""
    if isinstance(expr, Not):
        return _tested_ids(expr.child)
    if isinstance(expr, (And, Or)):
        return [question_id for child in expr.children for question_id in _tested_ids(child)]
    if expr.value is UNKNOWN:
        return []
    return [expr.question_id] if isinstance(expr, Atom) else list(expr.question_ids)


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
    return _eval(expr, answers_view(answers))[0]


def _eval(expr: RuleExpr, answers: Mapping[str, Verdict]) -> tuple[bool, bool | str]:
    """The rule's two-valued value and its strong Kleene value, in one pass.

    The Kleene value is True or False when every YES/NO completion of the
    UNKNOWN (or missing) answers gives it, else the id of an UNKNOWN answer
    it depends on; so "Q IS UNKNOWN" is False in it, whatever Q's answer.
    """
    kind = type(expr)
    if kind is Atom:
        answer = answers.get(expr.question_id, UNKNOWN)
        met = (answer is expr.value) != expr.negated
        if expr.value is UNKNOWN:
            return met, bool(expr.negated)
        return met, expr.question_id if answer is UNKNOWN else met
    if kind is Not:
        met, value = _eval(expr.child, answers)
        return not met, value if value.__class__ is str else not value
    if kind is And or kind is Or:
        # An AND is settled by one False child, an OR by one True child.
        decisive = kind is Or
        met = value = neutral = not decisive
        for child in expr.children:
            child_met, child_value = _eval(child, answers)
            if child_met is decisive:
                met = decisive
            if child_value is decisive or value is neutral:
                value = child_value
        return met, value
    if kind is AnyOf or kind is AllOf:
        decisive = kind is AnyOf
        target = expr.value
        if target is UNKNOWN:
            hits = [answers.get(question_id, UNKNOWN) is UNKNOWN
                    for question_id in expr.question_ids]
            return any(hits) if decisive else all(hits), False
        # ANY is settled by one matching answer, ALL by one known that differs.
        pending = None
        for question_id in expr.question_ids:
            answer = answers.get(question_id, UNKNOWN)
            if answer is UNKNOWN:
                if pending is None:
                    pending = question_id
            elif (answer is target) is decisive:
                return decisive, decisive
        # An UNKNOWN answer is not the target, so it fails ALL as well as ANY.
        return (not decisive, not decisive) if pending is None else (False, pending)
    raise TypeError(f"not a rule expression: {expr!r}")


# -- sensitivity --------------------------------------------------------------

class Stability(str, Enum):
    STABLE = "STABLE"
    UNSTABLE = "UNSTABLE"


class SensitivityResult(NamedTuple):
    """Whether a verdict survives every completion of its UNKNOWN answers."""

    status: Stability
    unknown_count: int
    capped: bool = False


def sensitivity(
    expr: RuleExpr | ParsedRule, answers: Mapping[str, Verdict]
) -> SensitivityResult:
    """Whether the rule's YES/NO completions agree, over the k UNKNOWN answers.

    k counts the referenced questions whose answer is UNKNOWN or missing.
    The result is STABLE when every completion of the k answers gives the
    rule one value, as ``_decide`` finds, and ``capped`` when that search
    stopped at SENSITIVITY_CAP.  That value is not compared with the
    two-valued one: with Q1 UNKNOWN, "Q1 IS UNKNOWN" is met, yet False
    under every completion.  A ParsedRule saves collecting its ids again.
    """
    rule = expr if isinstance(expr, ParsedRule) else ParsedRule(
        expr, tuple(sorted(referenced_ids(expr))))
    answers = answers_view(answers)
    stable = _decide(rule, answers)[1]
    return SensitivityResult(Stability.STABLE if stable else Stability.UNSTABLE,
                             unknown_count=_unknown_count(rule, answers),
                             capped=stable is None)


def _unknown_count(rule: ParsedRule, answers: Mapping[str, Verdict]) -> int:
    return sum(answers.get(question_id, UNKNOWN) is UNKNOWN
               for question_id in rule.question_ids)


def _decide(rule: ParsedRule, answers: Mapping[str, Verdict]) -> tuple[bool, bool | None]:
    """The rule's two-valued value on ``answers``, and whether it is STABLE.

    A decided Kleene value is shared by every completion, however many
    answers are UNKNOWN.  An undecided one means that they disagree for a
    read-once rule, and any other rule looks for a shared value by splitting
    its UNKNOWN answers (``_settle``), unless there are more than
    SENSITIVITY_CAP of them: then the verdict is UNSTABLE, and the second
    value is None instead of False to say that the cap decided it.
    """
    met, value = _eval(rule.expr, answers)
    if value.__class__ is str:
        if _unknown_count(rule, answers) > SENSITIVITY_CAP:
            return met, None
        value = None if rule.read_once else _settle(rule.expr, dict(answers))
    # The completions' shared value, or None: requiring it to equal ``met``
    # here would also make a STABLE verdict agree with every completion.
    return met, value is not None


def _settle(expr: RuleExpr, answers: dict[str, Verdict]) -> bool | None:
    """The value shared by every YES/NO completion of the UNKNOWN answers, else None.

    It splits on the answer that the Kleene value names, and stops at the
    first branch whose completions disagree.  ``answers`` is changed while
    splitting and restored before returning.
    """
    value = _eval(expr, answers)[1]
    if value.__class__ is not str:
        return value
    answers[value] = YES
    outcome = _settle(expr, answers)
    if outcome is not None:
        answers[value] = NO
        if _settle(expr, answers) != outcome:
            outcome = None
    answers[value] = UNKNOWN
    return outcome


# -- criterion / trial verdicts -----------------------------------------------

class CriterionVerdict(NamedTuple):
    """One criterion evaluated on one note's answers."""

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


class TrialVerdict(NamedTuple):
    """One trial's roll-up on one note, with the criteria that block it."""

    trial_id: str
    status: TrialStatus
    failing: tuple[str, ...]


class _Answers(dict):
    """One note's answers by question id, in which a missing answer is UNKNOWN."""

    __slots__ = ()

    def __missing__(self, question_id: str) -> Verdict:
        return UNKNOWN


def answers_view(answers: Mapping[str, Verdict]) -> Mapping[str, Verdict]:
    """One note's answers as the rules read them, which the rules then
    need not copy; a missing answer reads as UNKNOWN.  A view is returned
    as it is.  Raises TypeError, naming the question, for an answer that is
    not a ``Verdict`` member."""
    if type(answers) is _Answers:
        return answers
    view = _Answers(answers)
    for question_id, answer in view.items():
        if answer.__class__ is not Verdict:
            raise TypeError(f"answer to {question_id!r} is {answer!r}, "
                            f"not a Verdict member")
    return view


def criterion_verdict(
    criterion: CriterionSpec, answers: Mapping[str, Verdict]
) -> CriterionVerdict:
    """Evaluate one criterion's rule and its stability under UNKNOWN flips.

    ``met`` is two-valued; ``stable`` is ``sensitivity``'s STABLE, which
    says that the completions agree with one another, not with ``met``.

    The verdict is looked up in the rule's memo by the answers to its
    questions (``ParsedRule.key``), a missing answer counted as UNKNOWN as
    the evaluators count it, so notes that repeat a pattern share one
    immutable verdict.  A plain mapping is first copied into the view that
    ``answers_view`` builds, so a view and a plain mapping share one memo.
    """
    if not criterion.rule_text:
        raise CatalogError(
            f"criterion {criterion.criterion_id!r} has no rule to evaluate"
        )
    answers = answers_view(answers)
    rule = criterion.parsed_rule
    key = rule.key(answers)
    verdict = rule.outcomes.get(key)
    if verdict is None:
        met, stable = _decide(rule, answers)
        outcome = met, stable is True
        verdict = rule.verdicts.get(outcome)
        if verdict is None:
            verdict = rule.verdicts[outcome] = CriterionVerdict(
                criterion.criterion_id, criterion.kind, *outcome)
        rule.outcomes[key] = verdict
    return verdict


def verdicts_for_note(
    criteria: Iterable[CriterionSpec], answers: Mapping[str, Verdict]
) -> list[CriterionVerdict]:
    """Criterion verdicts for one note's answers, in the order of ``criteria``.

    The answers are copied once into a view in which a missing answer reads
    as UNKNOWN, unless they are one already (``answers_view``), and each
    criterion's verdict comes from criterion_verdict, which looks the view
    up in its rule's memo without copying it again.
    """
    answers = answers_view(answers)
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
