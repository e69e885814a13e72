package rdfterm

import (
	"encoding/json"
	"strings"
	"testing"
)

// hostileValues are lexical forms that exercise every escape rule of the
// wire form: quotes, backslash, HTML bytes, control bytes, a literal long
// enough to be cut, a cut that lands inside a rune, invalid UTF-8, and the
// two line separators encoding/json escapes.
func hostileValues() []string {
	sep := string(rune(0x2028)) + string(rune(0x2029))
	return []string{
		"", "plain", `say "hi"`, `back\slash`, "<tag>&amp;", "line\nbreak\ttab\r\b\f\x00\x1f\x7f",
		strings.Repeat("x", 91),
		strings.Repeat("y", 60) + "é" + "tail", // byte 61 cuts é in half
		strings.Repeat("z", 59) + "€" + strings.Repeat("w", 10),
		"bad\xffutf8\xc3", "sep" + sep, "日本語テキスト",
	}
}

func wireJSON(t Term) []byte {
	b, err := json.Marshal(t.String())
	if err != nil {
		panic(err)
	}
	return b
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	var terms []Term
	for _, v := range hostileValues() {
		terms = append(terms, NewURI(v), NewBlank(v), NewLiteral(v), NewLangLiteral(v, "en-GB"),
			NewTypedLiteral(v, "http://x#<t>&"), Term{Kind: Literal, Value: v, Language: v, Datatype: v})
	}
	terms = append(terms, Term{}, Term{Kind: 9, Value: "x"})
	for _, term := range terms {
		if got, want := term.AppendJSON(nil), wireJSON(term); string(got) != string(want) {
			t.Errorf("AppendJSON(%#v)\n got %s\nwant %s", term, got, want)
		}
	}
	for _, v := range hostileValues() {
		want, _ := json.Marshal(v)
		if got := AppendJSONString([]byte("prefix"), v); string(got) != "prefix"+string(want) {
			t.Errorf("AppendJSONString(%q) = %s, want prefix%s", v, got, want)
		}
	}
}

func TestAppendJSONAllocatesNothing(t *testing.T) {
	term := NewTypedLiteral(`a "quoted" <value> that is long enough to be cut off after sixty-one bytes`, XSDString)
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = term.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON allocated %.1f times per call, want 0", n)
	}
}

// FuzzAppendTermJSON checks the appender against json.Marshal(t.String())
// over arbitrary kinds, values, datatypes and languages.
func FuzzAppendTermJSON(f *testing.F) {
	for _, v := range hostileValues() {
		f.Add(uint8(Literal), v, "en", "")
		f.Add(uint8(Literal), v, "", XSDInt)
		f.Add(uint8(URI), v, "", "")
		f.Add(uint8(Blank), v, "", "")
	}
	f.Add(uint8(0), "", "", "")
	f.Fuzz(func(t *testing.T, kind uint8, value, lang, datatype string) {
		term := Term{Kind: Kind(kind % 5), Value: value, Language: lang, Datatype: datatype}
		if got, want := term.AppendJSON([]byte{'['}), append([]byte{'['}, wireJSON(term)...); string(got) != string(want) {
			t.Fatalf("AppendJSON(%#v)\n got %s\nwant %s", term, got, want)
		}
	})
}
