package core

import (
	"errors"
	"strings"

	"divsql/internal/engine"
	"divsql/internal/sql/stmt"
)

// ErrClass is a normalized error category. The paper's comparison
// tolerates representational differences in correct results; the same
// tolerance applies to errors: two servers rejecting a statement with
// differently-worded messages of the same category agree, while a fault
// that swaps one category for another (a spurious "deadlock" where a
// constraint violation belongs) is a detectable incorrect result even
// though both servers "errored".
type ErrClass string

// Error classes, from most to least specific.
const (
	ClassNone          ErrClass = "none"
	ClassCrash         ErrClass = "crash"
	ClassConnAborted   ErrClass = "conn-aborted"
	ClassSyntax        ErrClass = "syntax"
	ClassAbsentObject  ErrClass = "absent-object"
	ClassDuplicate     ErrClass = "duplicate-object"
	ClassConstraint    ErrClass = "constraint"
	ClassType          ErrClass = "type"
	ClassBind          ErrClass = "bind"
	ClassNoTransaction ErrClass = "no-transaction"
	ClassUnknownName   ErrClass = "unknown-name"
	ClassOther         ErrClass = "other"
)

// ErrorClass normalizes an error to its class. Engine sentinels are
// matched structurally; errors that cross a text-only boundary (wire
// protocol, fault-injected messages) fall back to message heuristics.
func ErrorClass(err error) ErrClass {
	switch {
	case err == nil:
		return ClassNone
	case errors.Is(err, engine.ErrTableNotFound):
		return ClassAbsentObject
	case errors.Is(err, engine.ErrDuplicateObject):
		return ClassDuplicate
	case errors.Is(err, engine.ErrConstraint):
		return ClassConstraint
	case errors.Is(err, engine.ErrType):
		return ClassType
	case errors.Is(err, stmt.ErrBind):
		return ClassBind
	case errors.Is(err, engine.ErrNoTransaction):
		return ClassNoTransaction
	}
	msg := strings.ToLower(err.Error())
	switch {
	case strings.Contains(msg, "engine crash"):
		return ClassCrash
	case strings.Contains(msg, "connection aborted"):
		return ClassConnAborted
	case strings.Contains(msg, "syntax error"):
		return ClassSyntax
	case strings.Contains(msg, "not found"), strings.Contains(msg, "does not exist"):
		return ClassAbsentObject
	case strings.Contains(msg, "already exists"), strings.Contains(msg, "duplicate column"):
		return ClassDuplicate
	case strings.Contains(msg, "constraint"), strings.Contains(msg, "duplicate key"), strings.Contains(msg, "not null"):
		return ClassConstraint
	case strings.Contains(msg, "type error"), strings.Contains(msg, "cannot cast"), strings.Contains(msg, "invalid number"):
		return ClassType
	case strings.Contains(msg, "bind error"), strings.Contains(msg, "parameter"):
		return ClassBind
	case strings.Contains(msg, "no transaction"), strings.Contains(msg, "transaction already in progress"):
		return ClassNoTransaction
	case strings.Contains(msg, "unknown column"), strings.Contains(msg, "unknown function"),
		strings.Contains(msg, "unknown table"), strings.Contains(msg, "invalid use of aggregate"),
		strings.Contains(msg, "wrong number of arguments"), strings.Contains(msg, "ambiguous"):
		return ClassUnknownName
	default:
		return ClassOther
	}
}

// SameErrorClass reports whether two errors fall into the same
// normalized class (both nil counts as agreement).
func SameErrorClass(a, b error) bool {
	return ErrorClass(a) == ErrorClass(b)
}
