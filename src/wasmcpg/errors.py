"""Exception hierarchy shared by the frontend, graph builders and query layers."""


class WasmCpgError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(WasmCpgError):
    """Malformed WAT input. Carries a line/column position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col or 0}: {message}"
        super().__init__(message)


class UnsupportedOpcodeError(ParseError):
    """Instruction outside the supported opcode set; parsing fails closed."""


class NameResolutionError(ParseError):
    """A symbolic or numeric immediate does not resolve in scope."""


class ValidationError(WasmCpgError):
    """Stack discipline violation in a function body."""


class GraphError(WasmCpgError):
    """Graph store misuse: unknown ids, dangling endpoints, frozen writes."""


class SchemaError(GraphError):
    """Node or edge properties do not match the schema for their kind."""


class DataflowError(WasmCpgError):
    """Dependency analysis failure (stack underflow, mismatched join)."""


class WqlError(WasmCpgError):
    """Base for query-language errors."""


class WqlSyntaxError(WqlError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class WqlRuntimeError(WqlError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExportError(WasmCpgError):
    """Serialization or import failure."""


class ConfigError(WasmCpgError, ValueError):
    """Malformed scan configuration. Also a ValueError, so callers that
    validate a configuration with `except ValueError` keep working."""
