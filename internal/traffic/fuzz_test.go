package traffic

import (
	"reflect"
	"testing"
)

// FuzzParseSpec drives the scenario grammar — untrusted input at ispyd's
// scenario endpoint — with arbitrary strings. Any input ParseSpec accepts
// must render a canonical Material that ParseSpec accepts again, back to
// an equal spec: the canonical form is itself a valid spec, and
// normalization is a fixed point. ZipfSkew is the one field Material does
// not carry; it is already folded into the weights.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"tenants=tomcat",
		"name=peak;seed=42;requests=512;arrival=gamma:0.5;day=0.5,1.0,2.0,1.0;zipf=1.1;" +
			"tenants=wordpress*2:slo=interactive,kafka:slo=batch:weight=0.5",
		"name=smoke;seed=11;requests=160;arrival=gamma:0.7;day=0.6,1.4;zipf=0.8;" +
			"tenants=wordpress:slo=interactive,tomcat:slo=batch",
		"seed=0x10;arrival=weibull;tenants=kafka:seed=9:name=k,verilator*3",
		" seed=7 ; tenants= wordpress , kafka ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		m := s.Material()
		back, err := ParseSpec(m)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its Material %q does not parse: %v", in, m, err)
		}
		back.ZipfSkew = s.ZipfSkew
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("ParseSpec(%q) = %+v\nre-parsed from %q = %+v", in, s, m, back)
		}
	})
}
