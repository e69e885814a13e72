package rdfterm

import "unicode/utf8"

// AppendJSON appends the wire form of t — t.String() as a JSON string —
// to dst, byte for byte what encoding/json writes for that string, without
// building it: the pieces of String are escaped in place. Escaping them
// one by one gives the same bytes as escaping their concatenation, since
// every piece after the first begins with an ASCII byte, which no UTF-8
// sequence can continue into.
func (t Term) AppendJSON(dst []byte) []byte {
	dst = append(dst, '"')
	switch t.Kind {
	case URI:
		dst = append(dst, `\u003c`...)
		dst = appendJSONEscaped(dst, t.Value)
		dst = append(dst, `\u003e`...)
	case Blank:
		dst = append(dst, "_:"...)
		dst = appendJSONEscaped(dst, t.Value)
	case Literal:
		dst = append(dst, `\"`...)
		if v := t.Value; len(v) > 64 { // abbrev, without building its string
			dst = appendJSONEscaped(dst, v[:61])
			dst = append(dst, "..."...)
		} else {
			dst = appendJSONEscaped(dst, v)
		}
		dst = append(dst, `\"`...)
		if t.Language != "" {
			dst = append(dst, '@')
			dst = appendJSONEscaped(dst, t.Language)
		}
		if t.Datatype != "" {
			dst = append(dst, `^^\u003c`...)
			dst = appendJSONEscaped(dst, t.Datatype)
			dst = append(dst, `\u003e`...)
		}
	default:
		dst = append(dst, `\u003cinvalid\u003e`...)
	}
	return append(dst, '"')
}

// AppendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it by default.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONEscaped(dst, s)
	return append(dst, '"')
}

// jsonSafe marks the ASCII bytes encoding/json copies unescaped with HTML
// escaping on: printable, and none of " \ < > &.
var jsonSafe = func() (set [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		set[b] = true
	}
	for _, b := range `"\<>&` {
		set[b] = false
	}
	return set
}()

const hexDigits = "0123456789abcdef"

// appendJSONEscaped appends the body of s's JSON string (no quotes):
// control bytes, quote, backslash and <, >, & escaped, invalid UTF-8 as
// \ufffd, U+2028 and U+2029 as \u2028 and \u2029 — encoding/json's rules.
func appendJSONEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}
