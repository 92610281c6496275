"""Prompt template loading, {{placeholder}} substitution, and the request
that asks one question about one note.

Templates ship inside the package under ``eligo/prompts/`` and can be
overridden per site by pointing ``prompts_dir`` at a directory holding
files with the same names.  Every command reads the templates it uses
through :func:`load_prompts`, once, before its first backend call.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable

from .corpus import AdmissionNote, QuestionSpec, canonical_text
from .errors import PromptError
from .gateway import FORMAT_CONTRACT, ChatRequest

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")

def load_template(name: str, prompts_dir: str | Path | None = None) -> str:
    """Return the template text; a prompts_dir override wins over package data.

    An override is checked as it is loaded: it must be UTF-8, not blank,
    and use exactly the placeholders that the packaged template of the same
    name uses, so a bad site template fails before any unit renders it and
    no request leaves out what the packaged one would send.
    """
    try:
        packaged = resources.files("eligo").joinpath(f"prompts/{name}.txt").read_text(
            encoding="utf-8"
        )
    except FileNotFoundError:
        raise PromptError(f"no prompt template named {name!r}")
    if prompts_dir is None:
        return packaged
    override = Path(prompts_dir) / f"{name}.txt"
    if not override.is_file():
        return packaged
    try:
        text = override.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PromptError(f"{override}: not UTF-8 (byte {exc.start})") from exc
    if not text.strip():
        raise PromptError(f"{override}: blank template")
    used = set(_PLACEHOLDER_RE.findall(text))
    filled = set(_PLACEHOLDER_RE.findall(packaged))
    if unknown := used - filled:
        raise PromptError(f"{override}: placeholder {_listed(unknown)} is not one "
                          f"the {name!r} template fills")
    if missing := filled - used:
        raise PromptError(f"{override}: placeholder {_listed(missing)} of the "
                          f"{name!r} template is missing")
    return text


def _listed(keys: set[str]) -> str:
    return ", ".join(f"{{{{{key}}}}}" for key in sorted(keys))


def load_prompts(names: Iterable[str],
                 prompts_dir: str | Path | None = None) -> dict[str, str]:
    """``{name: text}`` for the named templates, each read once through
    :func:`load_template`; a command calls this before its first backend
    call, so a bad override, or a ``prompts_dir`` that is not a directory,
    stops it before anything is sent."""
    if prompts_dir is not None and (prompts_dir == "" or not Path(prompts_dir).is_dir()):
        raise PromptError(f"prompts directory {str(prompts_dir)!r} is not a directory")
    return {name: load_template(name, prompts_dir) for name in names}


@lru_cache(maxsize=64)
def _split(template: str) -> tuple[str, ...]:
    """The template's literal text and placeholder names, alternating: the
    names are at the odd indices."""
    return tuple(_PLACEHOLDER_RE.split(template))


def render(template: str, **values: str) -> str:
    """Substitute {{name}} placeholders in a single pass.

    A placeholder with no value raises; substituted text is never rescanned,
    so values may safely contain braces.  Each template is split into its
    literal and placeholder parts once.
    """
    parts = list(_split(template))
    for index in range(1, len(parts), 2):
        key = parts[index]
        if key not in values:
            raise PromptError(f"template placeholder {{{{{key}}}}} has no value")
        parts[index] = values[key]
    return "".join(parts)


def question_request(template: str, question: QuestionSpec, note: AdmissionNote,
                     stage: str, **values: str) -> ChatRequest:
    """The request that asks ``question`` about ``note`` at ``stage`` (a role
    such as ``roleCRC``, or a debate stage such as ``judge|r1``): the template
    filled with the question, the note's canonical text and ``values``, then
    the answer-format contract that parse_answer reads.  Its tag is
    ``<note id>|<question id>|<stage>``.  Every role and debate request, and
    so every screen tag, is built here."""
    prompt = render(template, question=question.text, note=canonical_text(note), **values)
    return ChatRequest(f"{prompt}\n{FORMAT_CONTRACT}",
                       f"{note.note_id}|{question.question_id}|{stage}")
