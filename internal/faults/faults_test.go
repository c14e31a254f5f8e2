package faults

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if err := in.Hit("x"); err != nil {
		t.Error(err)
	}
	b, err := in.ReadBytes("x", []byte("abc"))
	if err != nil || string(b) != "abc" {
		t.Error("nil ReadBytes altered data")
	}
	if in.Events() != nil || in.Fired("*") != 0 {
		t.Error("nil injector reported events")
	}
}

func TestRuleMatchingAndEventLog(t *testing.T) {
	in := New(1)
	in.Enable("artifacts.read", Rule{Kind: Error})
	in.Enable("compute/*", Rule{Kind: Panic})

	if err := in.Hit("unrelated"); err != nil {
		t.Errorf("unmatched site fired: %v", err)
	}
	err := in.Hit("artifacts.read")
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Site != "artifacts.read" || ie.Kind != Error {
		t.Fatalf("Hit = %v", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("panic rule did not panic")
			}
		}()
		in.Hit("compute/base/wordpress")
	}()
	if got := in.Fired("*"); got != 2 {
		t.Errorf("Fired(*) = %d, want 2", got)
	}
	if got := in.Fired("compute/*"); got != 1 {
		t.Errorf("Fired(compute/*) = %d, want 1", got)
	}
	ev := in.Events()
	if len(ev) != 2 || ev[0].Site != "artifacts.read" || ev[1].Kind != Panic {
		t.Errorf("Events = %+v", ev)
	}
}

func TestGlobMatching(t *testing.T) {
	cases := []struct {
		pattern, site string
		want          bool
	}{
		{"a.b", "a.b", true},
		{"a.b", "a.bc", false},
		{"compute/*", "compute/base/tomcat", true},
		{"compute/*/tomcat", "compute/base/tomcat", true},
		{"compute/*/tomcat", "compute/base/kafka", false},
		{"*", "anything", true},
	}
	for _, c := range cases {
		if got := match(c.pattern, c.site); got != c.want {
			t.Errorf("match(%q, %q) = %v, want %v", c.pattern, c.site, got, c.want)
		}
	}
}

// TestProbabilityDeterministic: the same seed fires the same subset of hits;
// a different seed fires a different (but still reproducible) subset.
func TestProbabilityDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		in := New(seed)
		in.Enable("s", Rule{Kind: Error, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Hit("s") != nil
		}
		return out
	}
	a, b := run(7), run(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs across identical seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("prob 0.5 fired %d/%d times", fired, len(a))
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical firing patterns")
	}
}

func TestCountCapsFires(t *testing.T) {
	in := New(1)
	in.Enable("s", Rule{Kind: Error, Count: 2})
	n := 0
	for i := 0; i < 10; i++ {
		if in.Hit("s") != nil {
			n++
		}
	}
	if n != 2 {
		t.Errorf("fired %d times, want 2 (Count cap)", n)
	}
}

func TestShortWriteTearsPayload(t *testing.T) {
	in := New(1)
	in.Enable("w", Rule{Kind: ShortWrite})
	out, err := in.WriteBytes("w", []byte("0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Errorf("torn write kept %d of 10 bytes", len(out))
	}
}

func TestCorruptFlipsOneByte(t *testing.T) {
	in := New(1)
	in.Enable("r", Rule{Kind: Corrupt})
	orig := []byte("0123456789")
	mut, err := in.ReadBytes("r", orig)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(mut, orig) {
		t.Error("corrupt read returned identical bytes")
	}
	if string(orig) != "0123456789" {
		t.Error("corrupt read mutated the caller's buffer")
	}
	diff := 0
	for i := range mut {
		if mut[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corrupt flipped %d bytes, want 1", diff)
	}
}

func TestLatencyDelays(t *testing.T) {
	in := New(1)
	in.Enable("l", Rule{Kind: Latency, Delay: 5 * time.Millisecond})
	start := time.Now()
	if err := in.Hit("l"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("latency rule slept only %v", d)
	}
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec(3, "artifacts.write=short:0.5, compute/*/wordpress=panic")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.rules) != 2 {
		t.Fatalf("parsed %d rules", len(in.rules))
	}
	if in.rules[0].Kind != ShortWrite || in.rules[0].Prob != 0.5 {
		t.Errorf("rule 0 = %+v", in.rules[0])
	}
	if in.rules[1].pattern != "compute/*/wordpress" || in.rules[1].Kind != Panic {
		t.Errorf("rule 1 = %+v", in.rules[1])
	}
	for _, bad := range []string{"nospec", "x=", "=panic", "x=nosuch", "x=error:2", "x=error:0", "x=error:zz"} {
		if _, err := ParseSpec(1, bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	if in, err := ParseSpec(1, ""); err != nil || len(in.rules) != 0 {
		t.Error("empty spec should parse to no rules")
	}
}

func TestParseSpecRejectsDuplicatePatterns(t *testing.T) {
	_, err := ParseSpec(1, "artifacts.read=error,compute/*=latency,artifacts.read=corrupt:0.5")
	if err == nil {
		t.Fatal("duplicate pattern accepted; the second clause could never fire")
	}
	msg := err.Error()
	for _, want := range []string{
		`"artifacts.read=corrupt:0.5"`, // the offending clause, verbatim
		`"artifacts.read"`,             // the duplicated pattern
		`"artifacts.read=error"`,       // the clause it collides with
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not name %s", msg, want)
		}
	}

	// Distinct patterns that merely overlap (prefix vs glob) are fine.
	if _, err := ParseSpec(1, "compute/*=panic,compute/*/wordpress=error"); err != nil {
		t.Errorf("overlapping-but-distinct patterns rejected: %v", err)
	}
	// The duplicate check is per-pattern, not per-kind.
	if _, err := ParseSpec(1, "a=error,a=error"); err == nil {
		t.Error("identical duplicate clause accepted")
	}
}
