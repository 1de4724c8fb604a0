package server

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestQuestionKeyInvalidUTF8Distinct is the minimized regression for the
// json.Marshal key collision: Marshal replaces invalid UTF-8 with U+FFFD, so
// two facts differing only in invalid bytes used to share a key and a
// recovery journal could replay one question's answer into the other.
func TestQuestionKeyInvalidUTF8Distinct(t *testing.T) {
	a := &Question{Kind: KindVerifyFact, Fact: []string{"R", "\xff"}}
	b := &Question{Kind: KindVerifyFact, Fact: []string{"R", "\xfe"}}
	if QuestionKey(a) == QuestionKey(b) {
		t.Fatalf("distinct facts share a key: %q", QuestionKey(a))
	}
}

// TestQuestionKeyFieldBoundaries: values that would collide if fields were
// concatenated without length prefixes must produce distinct keys.
func TestQuestionKeyFieldBoundaries(t *testing.T) {
	cases := []struct{ a, b *Question }{
		// One two-element list vs one element containing the separator.
		{
			&Question{Kind: KindVerifyFact, Fact: []string{"a", "b"}},
			&Question{Kind: KindVerifyFact, Fact: []string{"a1:b"}},
		},
		// Same strings split across adjacent fields.
		{
			&Question{Kind: KindComplete, Query: "q", Unbound: []string{"x"}},
			&Question{Kind: KindComplete, Query: "q1:x"},
		},
		// Same cells in different row shapes.
		{
			&Question{Kind: KindCompleteResult, Current: [][]string{{"a", "b"}}},
			&Question{Kind: KindCompleteResult, Current: [][]string{{"a"}, {"b"}}},
		},
		// Partial map vs the same pairs flattened into a list.
		{
			&Question{Kind: KindComplete, Partial: map[string]string{"x": "1"}},
			&Question{Kind: KindComplete, Unbound: []string{"x", "1"}},
		},
		// Value that looks like an encoded length prefix.
		{
			&Question{Kind: KindVerifyFact, Fact: []string{"3:abc"}},
			&Question{Kind: KindVerifyFact, Fact: []string{"3:ab", "c"}},
		},
	}
	for i, c := range cases {
		if QuestionKey(c.a) == QuestionKey(c.b) {
			t.Errorf("case %d: distinct questions share key %q", i, QuestionKey(c.a))
		}
	}
}

// TestQuestionKeyIgnoresIdentity: ID, Job, Attempt and Text do not feed the
// key — a re-asked question must match its journaled answer.
func TestQuestionKeyIgnoresIdentity(t *testing.T) {
	a := &Question{ID: 1, Job: 2, Attempt: 1, Text: "first", Kind: KindVerifyAnswer, Query: "q", Tuple: []string{"t"}}
	b := &Question{ID: 9, Job: 5, Attempt: 3, Text: "retry", Kind: KindVerifyAnswer, Query: "q", Tuple: []string{"t"}}
	if QuestionKey(a) != QuestionKey(b) {
		t.Fatalf("identity fields leaked into the key:\n%q\n%q", QuestionKey(a), QuestionKey(b))
	}
}

// TestParseQuestionKeyRejectsMalformed: truncated, version-less, and
// trailing-garbage keys all decode to errors, never panics or bogus payloads.
func TestParseQuestionKeyRejectsMalformed(t *testing.T) {
	good := QuestionKey(&Question{Kind: KindComplete, Query: "q", Partial: map[string]string{"x": "1", "y": "2"}})
	if _, err := parseQuestionKey(good); err != nil {
		t.Fatalf("parseQuestionKey(valid key): %v", err)
	}
	bad := []string{
		"", "qk1", good[:len(good)-1], good + "x",
		`{"kind":"verify-fact"}`, // pre-fix JSON key
		questionKeyVersion + "99999999999999999999:a",
		questionKeyVersion + "-1:a",
		questionKeyVersion + "01:a", // non-canonical length
	}
	for _, k := range bad {
		if qu, err := parseQuestionKey(k); err == nil {
			t.Errorf("parseQuestionKey(%q) accepted malformed key as %+v", k, qu)
		}
	}
}

// questionPayloadEqual compares the key-relevant payload of two questions,
// identifying nil with empty collections the way the key does.
func questionPayloadEqual(a, b *Question) bool {
	eqList := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if a.Kind != b.Kind || a.Query != b.Query ||
		!eqList(a.Fact, b.Fact) || !eqList(a.Tuple, b.Tuple) || !eqList(a.Unbound, b.Unbound) {
		return false
	}
	if len(a.Partial) != len(b.Partial) {
		return false
	}
	for k, v := range a.Partial {
		if bv, ok := b.Partial[k]; !ok || bv != v {
			return false
		}
	}
	if len(a.Current) != len(b.Current) {
		return false
	}
	for i := range a.Current {
		if !eqList(a.Current[i], b.Current[i]) {
			return false
		}
	}
	return true
}

// FuzzQuestionKeyRoundTrip proves QuestionKey injective and stable for every
// generable question: encode → decode recovers the payload exactly, and
// re-encoding the decoded question reproduces the key byte for byte. The raw
// fuzz strings are used unfiltered, so invalid UTF-8 and delimiter bytes are
// exercised in every field.
func FuzzQuestionKeyRoundTrip(f *testing.F) {
	f.Add("verify-fact", "R\x00a\x00b", "", "", "", "")
	f.Add("verify-answer", "", "(x) :- R(x)", "t1\x00t2", "", "")
	f.Add("complete", "", "(x,y) :- R(x,y)", "", "x\x001\x00y\x002", "z")
	f.Add("complete-result", "", "q", "", "", "")
	f.Add("verify-fact", "R\x00\xff", "", "", "", "")
	f.Add("verify-fact", "R\x00\xfe", "", "", "", "")
	f.Add("k", "3:ab\x00c", "1:", "7;x", "a\x00b\x00a\x00c", "")
	f.Fuzz(func(t *testing.T, kind, fact, query, tuple, partial, unbound string) {
		split := func(s string) []string {
			if s == "" {
				return nil
			}
			return strings.Split(s, "\x00")
		}
		qu := &Question{
			Kind:    QuestionKind(kind),
			Fact:    split(fact),
			Query:   query,
			Tuple:   split(tuple),
			Unbound: split(unbound),
		}
		if pairs := split(partial); len(pairs) >= 2 {
			qu.Partial = make(map[string]string)
			for i := 0; i+1 < len(pairs); i += 2 {
				qu.Partial[pairs[i]] = pairs[i+1]
			}
		}
		// Derive result rows from the same material to cover Current.
		if len(qu.Tuple) > 0 {
			qu.Current = [][]string{qu.Tuple, split(fact)}
		}
		key := QuestionKey(qu)
		back, err := parseQuestionKey(key)
		if err != nil {
			t.Fatalf("parseQuestionKey(QuestionKey(%+v)) = %v\nkey: %q", qu, err, key)
		}
		if !questionPayloadEqual(qu, back) {
			t.Fatalf("round trip changed payload:\nin:  %+v\nout: %+v\nkey: %q", qu, back, key)
		}
		if key2 := QuestionKey(back); key2 != key {
			t.Fatalf("re-encoding not stable:\n%q\n%q", key, key2)
		}
	})
}

// parseQuestionKey decodes a QuestionKey back into the payload fields it
// encodes: the inverse FuzzQuestionKeyRoundTrip uses to prove the encoding
// injective. Empty collections decode as nil.
func parseQuestionKey(key string) (*Question, error) {
	rest, ok := strings.CutPrefix(key, questionKeyVersion)
	if !ok {
		return nil, fmt.Errorf("server: question key lacks %q version prefix", questionKeyVersion[:3])
	}
	p := &keyParser{rest: rest}
	qu := &Question{}
	qu.Kind = QuestionKind(p.str())
	qu.Fact = p.list()
	qu.Query = p.str()
	qu.Tuple = p.list()
	if n := p.count(); n > 0 {
		qu.Partial = make(map[string]string, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := p.str()
			if p.err == nil && i > 0 && k <= prev {
				p.fail("partial keys not strictly sorted")
			}
			prev = k
			qu.Partial[k] = p.str()
		}
	}
	qu.Unbound = p.list()
	if n := p.count(); n > 0 {
		qu.Current = make([][]string, n)
		for i := range qu.Current {
			qu.Current[i] = p.list()
			if qu.Current[i] == nil {
				qu.Current[i] = []string{}
			}
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.rest != "" {
		return nil, fmt.Errorf("server: question key has %d trailing bytes", len(p.rest))
	}
	return qu, nil
}

// keyParser consumes the length-prefixed question-key grammar. The first
// malformed token latches err and every later read returns zero values.
type keyParser struct {
	rest string
	err  error
}

func (p *keyParser) fail(msg string) {
	if p.err == nil {
		p.err = fmt.Errorf("server: malformed question key: %s", msg)
	}
}

// num reads a decimal count up to the delimiter sep (':' for strings, ';'
// for collections).
func (p *keyParser) num(sep byte) int {
	if p.err != nil {
		return 0
	}
	i := strings.IndexByte(p.rest, sep)
	if i < 0 {
		p.fail("missing length delimiter")
		return 0
	}
	n, err := strconv.Atoi(p.rest[:i])
	if err != nil || n < 0 || p.rest[:i] != strconv.Itoa(n) {
		p.fail("bad length")
		return 0
	}
	p.rest = p.rest[i+1:]
	return n
}

func (p *keyParser) str() string {
	n := p.num(':')
	if p.err != nil {
		return ""
	}
	if n > len(p.rest) {
		p.fail("string length past end of key")
		return ""
	}
	s := p.rest[:n]
	p.rest = p.rest[n:]
	return s
}

func (p *keyParser) count() int { return p.num(';') }

func (p *keyParser) list() []string {
	n := p.count()
	if p.err != nil || n == 0 {
		return nil
	}
	xs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		xs = append(xs, p.str())
	}
	if p.err != nil {
		return nil
	}
	return xs
}
