// Package icl reads and writes scan network descriptions in a compact
// dialect of the IEEE 1687 Instrument Connectivity Language (ICL).
//
// The BASTION benchmark suite the paper evaluates on distributes its
// networks as ICL source files; this package gives the reproduction the
// same round-trippable textual form. The dialect covers exactly the
// constructs the secure-data-flow method needs: scan registers with
// lengths, module association and capture/update links, scan
// multiplexers, and the scan-in/scan-out ports.
//
// Grammar (informal):
//
//	file        := "ScanNetwork" string "{" decl* "}"
//	decl        := module | register | mux | scanout
//	module      := "Module" string ";"
//	register    := "ScanRegister" string "{" regItem* "}"
//	regItem     := "Length" number ";"
//	             | "ScanInSource" ref ";"
//	             | "Module" string ";"
//	             | "CaptureSource" number string ";"
//	             | "UpdateSink" number string ";"
//	mux         := "ScanMux" string "{" ("Input" ref ";")* "}"
//	scanout     := "ScanOutSource" ref ";"
//	ref         := "SI" | "Register" string | "Mux" string
package icl

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokLBrace
	tokRBrace
	tokSemi
	tokComma
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokSemi:
		return "';'"
	case tokComma:
		return "','"
	}
	return "?"
}

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1}
}

// next returns the next token, skipping whitespace and // comments.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil
scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '{':
		l.pos++
		return token{tokLBrace, "{", l.line}, nil
	case c == '}':
		l.pos++
		return token{tokRBrace, "}", l.line}, nil
	case c == ';':
		l.pos++
		return token{tokSemi, ";", l.line}, nil
	case c == ',':
		l.pos++
		return token{tokComma, ",", l.line}, nil
	case c == '"':
		// The dialect has no escapes: the token is the quoted text.
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				return token{}, fmt.Errorf("icl: line %d: unterminated string", l.line)
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("icl: line %d: unterminated string", l.line)
		}
		l.pos++
		return token{tokString, l.src[start+1 : l.pos-1], l.line}, nil
	case c >= '0' && c <= '9':
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		return token{tokNumber, l.src[start:l.pos], l.line}, nil
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{tokIdent, l.src[start:l.pos], l.line}, nil
	}
	return token{}, fmt.Errorf("icl: line %d: unexpected character %q", l.line, c)
}

// isIdentStart and isIdentPart classify single bytes. A byte >= 0x80 is
// judged as the Latin-1 rune of the same value.
func isIdentStart(c byte) bool {
	if c < utf8.RuneSelf {
		return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
	}
	return unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	if c < utf8.RuneSelf {
		return isIdentStart(c) || c == '.' || '0' <= c && c <= '9'
	}
	return unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}
