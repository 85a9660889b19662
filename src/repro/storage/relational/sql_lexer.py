"""Tokenizer for the SQL dialect of :mod:`.sql_parser`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ...errors import SQLSyntaxError

KEYWORDS = frozenset(
    """
    select distinct from where group by having order limit as and not
    null like join inner on create table primary key insert into values
    int integer float real text varchar bool boolean date true false asc
    desc count sum avg min max update set delete drop
    """.split()
    # Reserved outside the dialect, so that a clause the engine does not
    # run fails at its first word instead of reading as an alias.
    + "or in is between left right outer".split()
)

# Token kinds
KW = "KW"
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
PUNCT = "PUNCT"
EOF = "EOF"

_TWO_CHAR_OPS = ("<=", ">=", "<>", "!=")
_ONE_CHAR_OPS = "=<>-*"
_PUNCT = "(),.;"


@dataclass(frozen=True)
class SQLToken:
    """A lexed token with kind, text and source position."""

    kind: str
    text: str
    position: int


def lex(sql: str) -> List[SQLToken]:
    """Tokenize *sql*; raises :class:`SQLSyntaxError` on illegal input.

    >>> [t.text for t in lex("SELECT a FROM t")][:3]
    ['SELECT', 'a', 'FROM']
    """
    tokens: List[SQLToken] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = n if newline == -1 else newline + 1
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while j < n:
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(sql[j])
                j += 1
            if j >= n:
                raise SQLSyntaxError("unterminated string literal", i)
            tokens.append(SQLToken(STRING, "".join(buf), i))
            i = j + 1
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and sql[i + 1].isdigit()
        ):
            j = i
            seen_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
                if sql[j] == ".":
                    # Don't absorb the dot of "t.col" after a number-ish ident.
                    if j + 1 >= n or not sql[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(SQLToken(NUMBER, sql[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            word = sql[i:j]
            kind = KW if word.lower() in KEYWORDS else IDENT
            tokens.append(SQLToken(kind, word, i))
            i = j
            continue
        two = sql[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(SQLToken(OP, two, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(SQLToken(OP, ch, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(SQLToken(PUNCT, ch, i))
            i += 1
            continue
        raise SQLSyntaxError("unexpected character %r" % ch, i)
    tokens.append(SQLToken(EOF, "", n))
    return tokens
