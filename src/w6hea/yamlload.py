"""YAML text to Python values, read as PyYAML's safe loader reads the core
tags, with located errors and bounds on nesting and aliases.

libyaml's parser (PyYAML's pure-Python one where PyYAML was built without
libyaml) supplies the events; ``Reader`` builds values straight from them,
with no node tree.  Scalars read through PyYAML's own implicit resolver and
``SafeConstructor``; a tag outside the core ones is an error.  Repository
files, OpenAPI documents, manifests and the prompt catalog all load through
``Reader``.
"""

from __future__ import annotations

import copy
import re
from types import GeneratorType
from typing import NamedTuple, Optional

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.parser import Parser
from yaml.reader import Reader as _TextReader, ReaderError
from yaml.resolver import Resolver
from yaml.scanner import Scanner

from .model import FIELD_NESTING_LIMIT

_ALIAS_LIMIT = 100_000  # values aliases may add to one document once expanded
# Collections one document may nest, the top-level one included.  A file holds
# attributes and records three levels down (document, section, declaration), so
# every repository the model accepts is written within this bound.
_NESTING_LIMIT = FIELD_NESTING_LIMIT + 3

# libyaml scans and parses; the pure-Python classes are the fallback where
# PyYAML was built without it.  Writing never uses libyaml.
if yaml.__with_libyaml__:
    from yaml.cyaml import CParser as _Parser
else:

    class _Parser(_TextReader, Scanner, Parser):
        def __init__(self, stream):
            _TextReader.__init__(self, stream)
            Scanner.__init__(self)
            Parser.__init__(self)


class _Scalars(SafeConstructor, Resolver):
    """PyYAML's implicit resolver and its safe constructors of the core tags,
    those a repository value is built from: the tag and value of a scalar, and
    what a tag makes of a collection.  Any other tag is an error."""

    yaml_constructors = {
        f"tag:yaml.org,2002:{tag}": SafeConstructor.yaml_constructors[f"tag:yaml.org,2002:{tag}"]
        for tag in ("str", "int", "float", "bool", "null", "seq", "map", "timestamp")
    }

    def __init__(self):
        SafeConstructor.__init__(self)
        Resolver.__init__(self)
        self.plain = {}  # a plain scalar's text -> (tag, value), for one text

    def construct(self, node) -> tuple:
        """``(value, error)`` as ``construct_object`` gives them for ``node``,
        an empty node for a collection.  An error is ``(order, exception)``:
        order ``(0,)`` when the constructor raises at once, ``(1, -1)`` when it
        raises after yielding the collection's empty value."""
        constructor = self.yaml_constructors.get(node.tag, SafeConstructor.construct_undefined)
        try:
            value = constructor(self, node)
            if isinstance(value, GeneratorType):
                generator, value = value, next(value)
                try:
                    for _ in generator:  # the node is empty: only its kind is checked
                        pass
                except ConstructorError as exc:
                    return value, ((1, -1), exc)
            return value, None
        except (ValueError, LookupError, AttributeError, TypeError) as exc:  # int, float, bool, timestamp
            message = f"cannot construct {node.value!r}: {exc}"
            return None, ((0,), ConstructorError(None, None, message, node.start_mark))
        except ConstructorError as exc:
            return None, ((0,), exc)


# JSON's number rule: a number with an exponent is a float, where YAML 1.1
# reads one with no dot or no exponent sign as text.
JSON_FLOAT = (
    "tag:yaml.org,2002:float",
    re.compile(r"^-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?[eE][-+]?[0-9]+$"),
    list("-0123456789"),
)


class _JsonScalars(_Scalars):
    """``_Scalars`` with JSON's number rule, for files named ``*.json``."""


_JsonScalars.add_implicit_resolver(*JSON_FLOAT)

_STR, _MERGE = "tag:yaml.org,2002:str", "tag:yaml.org,2002:merge"


def _child(order: tuple, step: int) -> tuple:
    """Where a child's error falls among its parent's.  As in
    ``SafeConstructor.construct_document``, a collection constructs its
    children in steps, and each child collection's content one round later."""
    return (1, step) if order == (0,) else (order[0] + 1, step) + order[1:]


class _Key(NamedTuple):
    """A mapping key waiting for its value: what it constructs to, its first
    error, its start mark, and, for a scalar, its text and tag."""

    value: object
    error: Optional[tuple]
    mark: object
    text: Optional[str]
    tag: Optional[str]


class _Node:
    """A collection being built, or a node an alias, a merge key or a
    diagnostic still needs: its value, its first error and its start mark.
    A kept collection (under an anchor or a merge key) keeps its children in
    ``raw``."""

    __slots__ = (
        "kind", "value", "err", "mark", "text", "tag", "size", "open", "keep", "role",
        "key", "pos", "errs", "seen", "duplicate", "marks", "merging", "merges", "raw", "flat",
    )

    def __init__(self, kind, value, err, mark, text=None, tag=None):
        self.kind, self.value, self.err, self.mark = kind, value, err, mark
        self.text, self.tag, self.size, self.open = text, tag, 1, False


class Reader:
    """Builds the values of one YAML text straight from its parser's events,
    with no node tree.

    Nesting deeper than ``_NESTING_LIMIT``, a key written twice in one
    mapping, an anchor defined twice, an undefined alias, an alias inside its
    own anchor, and aliases that expand to more than ``_ALIAS_LIMIT`` values
    raise ``ComposerError`` where they occur.  An alias is an independent copy,
    and ``<<`` merge keys merge as PyYAML's ``flatten_mapping`` merges them.
    A value that cannot be constructed raises, when its document ends, the
    ``ConstructorError`` that ``SafeConstructor`` would raise first.  A
    subclass may give a collection a ``role``; its children then go to
    ``place`` as soon as each is built, which may drop them."""

    def __init__(self, text: str, path: str):
        try:
            self.parser = _Parser(text)
        except UnicodeEncodeError as exc:  # libyaml reads UTF-8, which has no lone surrogate
            character, reason = ord(text[exc.start]), "special characters are not allowed"
            raise ReaderError("<unicode string>", exc.start, character, "unicode", reason) from None
        self.scalars = (_JsonScalars if path.endswith(".json") else _Scalars)()

    def documents(self, single: bool = False):
        """Build each document in turn; its root node is ``root``.  With
        ``single``, a second document is an error, as in ``yaml.load``."""
        get, check, built = self.parser.get_event, self.parser.check_event, False
        get()
        while not check(yaml.StreamEndEvent):
            if single and built:
                first, problem = "expected a single document in the stream", "but found another document"
                raise ComposerError(first, self.root.mark, problem, get().start_mark)
            self.document()
            built = True
            yield self.root

    def document(self) -> None:
        get = self.parser.get_event
        get()
        self.anchors, self.expanded, self.count, self.stack = {}, 0, 0, []
        while True:
            event = get()
            kind = type(event)
            if kind is yaml.ScalarEvent:
                self.scalar(event)
            elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
                self.start(event, kind is yaml.MappingStartEvent)
            elif kind is yaml.AliasEvent:
                self.alias(event)
            elif kind is yaml.DocumentEndEvent:
                return
            else:
                node = self.stack.pop()
                self.close(node)
                self.add(node.value, node.err, node.mark, node)

    def anchor(self, event, node: _Node) -> None:
        if event.anchor in self.anchors:
            first = f"found duplicate anchor {event.anchor!r}; first occurrence"
            raise ComposerError(first, self.anchors[event.anchor].mark, "second occurrence", event.start_mark)
        self.anchors[event.anchor] = node

    def scalar(self, event) -> None:
        self.count += 1
        tag, text, error, plain = event.tag, event.value, None, self.scalars.plain
        if tag is None and event.implicit[0] and text in plain:
            tag, value = plain[text]
        elif tag is None and not event.implicit[0]:
            tag, value = _STR, text  # quoted: the resolver and the str constructor give its text
        else:
            if tag is None or tag == "!":
                tag = self.scalars.resolve(yaml.ScalarNode, text, event.implicit)
            value, error = self.scalars.construct(yaml.ScalarNode(tag, text, event.start_mark, None))
            if event.tag is None and not error:
                plain[text] = tag, value
        node, top = None, self.stack[-1] if self.stack else None
        if event.anchor is not None or top is not None and (top.keep or top.merging):
            node = _Node("scalar", value, error, event.start_mark, text, tag)
            if event.anchor is not None:
                self.anchor(event, node)
        self.add(value, error, event.start_mark, node, text, tag)

    def start(self, event, mapping: bool) -> None:
        top = self.stack[-1] if self.stack else None
        node = _Node("mapping" if mapping else "sequence", None, None, event.start_mark, None, event.tag)
        if event.anchor is not None:
            self.anchor(event, node)
        if len(self.stack) >= _NESTING_LIMIT:
            raise ComposerError(None, None, "nesting too deep", event.start_mark)
        node.size, node.open, node.role = self.count, True, self.role(top, mapping)
        node.keep = event.anchor is not None or top is not None and (top.keep or top.merging)
        node.key, node.pos, node.errs, node.marks, node.merging = None, 0, [], {}, False
        node.seen, node.duplicate, node.merges, node.raw = set(), None, [], []
        node.value = {} if mapping else []
        self.count += 1
        if event.tag is not None and event.tag != "!":
            empty = (yaml.MappingNode if mapping else yaml.SequenceNode)(event.tag, [], event.start_mark, None)
            node.err = self.scalars.construct(empty)[1]
        self.stack.append(node)

    def role(self, parent: Optional[_Node], mapping: bool) -> Optional[str]:
        """What a collection starting under ``parent`` is to this reader:
        the children of one with a role go to ``place``."""
        return None

    def place(self, top: _Node, key: Optional[_Key], value, error, mark, node) -> bool:
        """Take a child of ``top``, which has a role; True when ``top`` keeps
        no more of it."""
        return False

    def alias(self, event) -> None:
        node = self.anchors.get(event.anchor)
        if node is None:
            raise ComposerError(None, None, f"found undefined alias {event.anchor!r}", event.start_mark)
        if node.open:
            message = f"alias *{event.anchor} is inside its own anchor"
            raise ComposerError(None, None, message, event.start_mark)
        self.expanded += node.size
        self.count += node.size
        if self.expanded > _ALIAS_LIMIT:
            message = f"aliases expand to more than {_ALIAS_LIMIT} values"
            raise ComposerError(None, None, message, event.start_mark)
        value = node.value if node.kind == "scalar" else copy.deepcopy(node.value)
        self.add(value, node.err, node.mark, node, node.text, node.tag)

    def add(self, value, error, mark, node: Optional[_Node], text=None, tag=None) -> None:
        """Put a finished child into the collection open on top."""
        if not self.stack:
            self.root = node or _Node("scalar", value, error, mark)
            return
        top = self.stack[-1]
        if top.kind == "sequence":
            if top.role is None or not self.place(top, None, value, error, mark, node):
                if top.keep:
                    top.raw.append(node)
                top.value.append(value)
                if error:
                    top.errs.append((top.pos, 0, error))
                top.pos += 1
        elif top.key is None:
            top.key = _Key(value, error, mark, text, tag)
            if tag == _MERGE:
                top.merging = top.role is None
            elif tag is not None:
                if (tag, text) in top.seen and not top.duplicate:
                    top.duplicate = text, mark
                top.seen.add((tag, text))
        else:
            key, top.key = top.key, None
            if top.role is not None and self.place(top, key, value, error, mark, node):
                return
            if top.keep:
                top.raw.append((key, node))
            if key.tag == _MERGE:
                top.merges.append(node)
                top.merging = False
            else:
                self.pair(top, top.pos, key, value, error, mark)
                top.pos += 1

    def pair(self, top: _Node, step: int, key: _Key, value, error, mark) -> None:
        """Add a key and its value to the mapping ``top`` as its pair ``step``."""
        if key.error:
            top.errs.append((step, 0, key.error))
        if type(key.value) is list or type(key.value) is dict:
            problem = ConstructorError("while constructing a mapping", top.mark, "found unhashable key", key.mark)
            top.errs.append((step, 1, ((0,), problem)))
        else:
            top.value[key.value] = value
        if error:
            top.errs.append((step, 2, error))
        if key.text is not None:
            top.marks[key.text] = mark

    def close(self, node: _Node) -> None:
        """Finish a collection whose end event came: its duplicate keys, its
        merge keys and its first error."""
        node.open, node.size = False, self.count - node.size
        if node.duplicate:
            text, mark = node.duplicate
            raise ComposerError(None, None, f"found duplicate key {text!r}", mark)
        if not (node.errs or node.err or node.merges or node.keep):
            return
        errors, merged, flat_error = [node.err] if node.err else [], [], None
        if node.merges:
            merged, flat_error = self.merged(node.merges, node.mark)
            if flat_error:
                errors.append(((1, -1), flat_error))
            else:
                explicit = node.value, node.marks, node.errs
                node.value, node.marks, node.errs = {}, {}, []
                for step, (key, vnode) in enumerate(merged):
                    self.pair(node, step, key, copy.deepcopy(vnode.value), vnode.err, vnode.mark)
                node.value.update(explicit[0])
                node.marks.update(explicit[1])
                node.errs += [(step + len(merged), sub, error) for step, sub, error in explicit[2]]
        if node.keep and node.kind == "mapping":
            explicit = [(key, vnode) for key, vnode in node.raw if key.tag != _MERGE]
            node.flat = merged + explicit, flat_error
        width = 1 if node.kind == "sequence" else 3
        errors += [(_child(e[0], width * step + sub), e[1]) for step, sub, e in node.errs]
        node.err = min(errors, key=lambda error: error[0]) if errors else None

    def merged(self, merges: list, mark) -> tuple:
        """``(pairs, error)``: the pairs that merge keys with the values
        ``merges`` bring into the mapping at ``mark``, in the order
        ``flatten_mapping`` puts them, and the first error it raises."""
        pairs = []
        for node in merges:
            if node.kind == "scalar":
                problem = "expected a mapping or list of mappings for merging, but found scalar"
                return pairs, ConstructorError("while constructing a mapping", mark, problem, node.mark)
            taken = []
            for item in node.raw if node.kind == "sequence" else [node]:
                if item.kind != "mapping":
                    problem = f"expected a mapping for merging, but found {item.kind}"
                    return pairs, ConstructorError("while constructing a mapping", mark, problem, item.mark)
                if item.flat[1]:
                    return pairs, item.flat[1]
                taken.append(item.flat[0])
            for flat in reversed(taken):
                pairs += flat
        return pairs, None


def load(text: str, path: str):
    """The value of the one YAML document in ``text``, as ``yaml.load`` with
    a safe loader gives it (None for no document), read by the number rule
    for ``path``.  Raises ``yaml.YAMLError`` with the error's mark."""
    roots = list(Reader(text, path).documents(single=True))
    if roots and roots[0].err:
        raise roots[0].err[1]
    return roots[0].value if roots else None


def load_all(text: str, path: str) -> list:
    """The value of each YAML document in ``text``, as ``load`` reads one."""
    values = []
    for root in Reader(text, path).documents():
        if root.err:
            raise root.err[1]
        values.append(root.value)
    return values
