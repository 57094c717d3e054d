// Package lexer tokenizes SQL source for the simulated servers. It
// accepts the superset of the four simulated dialects: single-quoted
// strings with ” escapes, double-quoted and [bracketed] identifiers,
// line (--) and block (/* */) comments, and the usual operator set.
package lexer

import (
	"fmt"
	"strings"
)

// TokenKind classifies a token.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota + 1
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp
	TokComma
	TokLParen
	TokRParen
	TokSemicolon
	TokDot
	TokStar
	// TokParam is a bind-parameter placeholder: "?" (Text "?") or "$n"
	// (Text is the decimal ordinal).
	TokParam
)

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers preserve case
	Pos  int    // byte offset in the input
}

// Keywords recognized by the parser. Everything else alphanumeric is an
// identifier. The set is the union of all four simulated dialects.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "DISTINCT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "VIEW": true, "INDEX": true,
	"SEQUENCE": true, "GENERATOR": true, "DROP": true, "AS": true, "ON": true,
	"AND": true, "OR": true, "NOT": true, "NULL": true, "IS": true, "IN": true,
	"EXISTS": true, "BETWEEN": true, "LIKE": true, "UNION": true, "ALL": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"OUTER": true, "CROSS": true, "PRIMARY": true, "KEY": true, "UNIQUE": true,
	"CHECK": true, "DEFAULT": true, "CONSTRAINT": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "CAST": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "WORK": true,
	"TRANSACTION": true, "LIMIT": true, "TOP": true, "ROWS": true,
	"CLUSTERED": true, "START": true, "WITH": true, "TRUE": true, "FALSE": true,
}

// Lexer tokenizes one SQL statement or script.
type Lexer struct {
	src string
	pos int
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// LexError reports a tokenization failure with its offset.
type LexError struct {
	Pos int
	Msg string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("lex error at offset %d: %s", e.Pos, e.Msg)
}

// Tokenize scans the whole input and returns its tokens, terminated by a
// TokEOF token. The slice is reserved once from the input length: SQL
// text runs about four bytes per token, and fewer than three only in
// dense lists such as (1,2,3), which then grow by append.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	toks := make([]Token, 0, len(src)/3+2)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// PlainIdent reports whether name, written bare, lexes as one identifier
// token with that text: an identifier word that is not a keyword.
func PlainIdent(name string) bool {
	if name == "" || !isIdentStart(name[0]) {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !isIdentPart(name[i]) {
			return false
		}
	}
	return !keywords[strings.ToUpper(name)]
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				return &LexError{Pos: lx.pos, Msg: "unterminated block comment"}
			}
			lx.pos += 2 + end + 2
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: lx.pos}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case isIdentStart(c):
		for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
			lx.pos++
		}
		word := lx.src[start:lx.pos]
		up := strings.ToUpper(word)
		if keywords[up] {
			return Token{Kind: TokKeyword, Text: up, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil
	case isDigit(c) || (c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1])):
		seenDot := false
		for lx.pos < len(lx.src) {
			ch := lx.src[lx.pos]
			if isDigit(ch) {
				lx.pos++
				continue
			}
			if ch == '.' && !seenDot {
				// A second dot or ".." terminates the number (range syntax
				// is not supported, so a bare dot is part of the literal).
				seenDot = true
				lx.pos++
				continue
			}
			if (ch == 'e' || ch == 'E') && lx.pos+1 < len(lx.src) {
				nxt := lx.src[lx.pos+1]
				if isDigit(nxt) || ((nxt == '+' || nxt == '-') && lx.pos+2 < len(lx.src) && isDigit(lx.src[lx.pos+2])) {
					lx.pos += 2
					for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
						lx.pos++
					}
				}
			}
			break
		}
		return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Pos: start}, nil
	case c == '\'':
		var sb strings.Builder
		lx.pos++
		for {
			if lx.pos >= len(lx.src) {
				return Token{}, &LexError{Pos: start, Msg: "unterminated string literal"}
			}
			ch := lx.src[lx.pos]
			if ch == '\'' {
				if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\'' {
					sb.WriteByte('\'')
					lx.pos += 2
					continue
				}
				lx.pos++
				return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
			}
			sb.WriteByte(ch)
			lx.pos++
		}
	case c == '"':
		end := strings.IndexByte(lx.src[lx.pos+1:], '"')
		if end < 0 {
			return Token{}, &LexError{Pos: start, Msg: "unterminated quoted identifier"}
		}
		word := lx.src[lx.pos+1 : lx.pos+1+end]
		lx.pos += end + 2
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil
	case c == '[':
		end := strings.IndexByte(lx.src[lx.pos+1:], ']')
		if end < 0 {
			return Token{}, &LexError{Pos: start, Msg: "unterminated bracketed identifier"}
		}
		word := lx.src[lx.pos+1 : lx.pos+1+end]
		lx.pos += end + 2
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil
	case c == ',':
		lx.pos++
		return Token{Kind: TokComma, Text: ",", Pos: start}, nil
	case c == '(':
		lx.pos++
		return Token{Kind: TokLParen, Text: "(", Pos: start}, nil
	case c == ')':
		lx.pos++
		return Token{Kind: TokRParen, Text: ")", Pos: start}, nil
	case c == ';':
		lx.pos++
		return Token{Kind: TokSemicolon, Text: ";", Pos: start}, nil
	case c == '.':
		lx.pos++
		return Token{Kind: TokDot, Text: ".", Pos: start}, nil
	case c == '*':
		lx.pos++
		return Token{Kind: TokStar, Text: "*", Pos: start}, nil
	case c == '?':
		lx.pos++
		return Token{Kind: TokParam, Text: "?", Pos: start}, nil
	case c == '$' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]):
		lx.pos++
		numStart := lx.pos
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
		}
		return Token{Kind: TokParam, Text: lx.src[numStart:lx.pos], Pos: start}, nil
	default:
		for _, op := range [...]string{"<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "/", "%"} {
			if strings.HasPrefix(lx.src[lx.pos:], op) {
				lx.pos += len(op)
				text := op
				if op == "!=" {
					text = "<>"
				}
				return Token{Kind: TokOp, Text: text, Pos: start}, nil
			}
		}
		return Token{}, &LexError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
}
