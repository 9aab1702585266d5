"""Architecture-as-code toolkit for viewpoint-driven microservice models."""

from .model import (
    Concern,
    Entity,
    Interrogative,
    Link,
    Repository,
    View,
    ViewCell,
    cells,
    interrogative_order,
    prerequisites,
)
from .repofmt import (
    Diagnostic,
    SourceDocument,
    parse_repository,
    serialize_repository,
)

__version__ = "0.1.0"

__all__ = [
    "Concern",
    "Diagnostic",
    "Entity",
    "Interrogative",
    "Link",
    "Repository",
    "SourceDocument",
    "View",
    "ViewCell",
    "cells",
    "interrogative_order",
    "parse_repository",
    "prerequisites",
    "serialize_repository",
]
