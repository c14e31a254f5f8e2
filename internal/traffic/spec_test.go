package traffic

import (
	"strings"
	"testing"
)

func TestParseSpecFull(t *testing.T) {
	s, err := ParseSpec("name=peak;seed=42;requests=512;arrival=gamma:0.5;day=0.5,1.0,2.0,1.0;zipf=1.1;" +
		"tenants=wordpress*2:slo=interactive,kafka:slo=batch:weight=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "peak" || s.Seed != 42 || s.Requests != 512 {
		t.Fatalf("header mismatch: %+v", s)
	}
	if s.Arrival != ArrivalGamma || s.ArrivalShape != 0.5 {
		t.Fatalf("arrival mismatch: %q %v", s.Arrival, s.ArrivalShape)
	}
	if len(s.Phases) != 4 || s.Phases[2] != 2.0 {
		t.Fatalf("phases mismatch: %v", s.Phases)
	}
	if len(s.Tenants) != 3 {
		t.Fatalf("tenant count %d, want 3", len(s.Tenants))
	}
	if s.Tenants[0].Name != "wordpress#1" || s.Tenants[1].Name != "wordpress#2" || s.Tenants[2].Name != "kafka" {
		t.Fatalf("derived names wrong: %q %q %q", s.Tenants[0].Name, s.Tenants[1].Name, s.Tenants[2].Name)
	}
	if s.Tenants[0].SLO != "interactive" || s.Tenants[2].SLO != "batch" {
		t.Fatalf("SLO classes wrong: %+v", s.Tenants)
	}
	// Explicit weight wins over the Zipf share; unset weights take it.
	if s.Tenants[2].Weight != 0.5 {
		t.Fatalf("explicit weight overridden: %v", s.Tenants[2].Weight)
	}
	if s.Tenants[0].Weight <= s.Tenants[1].Weight {
		t.Fatalf("zipf weights not skewed: %v vs %v", s.Tenants[0].Weight, s.Tenants[1].Weight)
	}
	for i, ts := range s.Tenants {
		if ts.Seed == 0 {
			t.Fatalf("tenant %d seed not derived", i)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("tenants=tomcat")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "scenario" || s.Requests != DefaultRequests || s.Arrival != ArrivalPoisson {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if len(s.Phases) != 1 || s.Phases[0] != 1 {
		t.Fatalf("default day wrong: %v", s.Phases)
	}
	if s.Tenants[0].Name != "tomcat" || s.Tenants[0].SLO != "std" || s.Tenants[0].Weight != 1 {
		t.Fatalf("tenant defaults wrong: %+v", s.Tenants[0])
	}
}

// TestParseSpecUnknownAppNamesTenant: the satellite-5 contract — an unknown
// preset reached through the spec must fail with a structured error naming
// the offending tenant, not panic.
func TestParseSpecUnknownAppNamesTenant(t *testing.T) {
	_, err := ParseSpec("tenants=wordpress,httpd")
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "tenant 1") || !strings.Contains(msg, `"httpd"`) {
		t.Fatalf("error does not name the offending tenant: %v", err)
	}
	if !strings.Contains(msg, "wordpress") {
		t.Fatalf("error does not list valid presets: %v", err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",                      // no tenants
		"tenants=",              // empty tenant list
		"bogus=1;tenants=kafka", // unknown clause
		"requests=-5;tenants=kafka",
		"arrival=pareto;tenants=kafka",
		"arrival=poisson:2;tenants=kafka",
		"arrival=gamma:0;tenants=kafka",
		"day=1,0;tenants=kafka",
		"zipf=-1;tenants=kafka",
		"tenants=kafka*0",
		"tenants=kafka:weight=0",
		"tenants=kafka:bogus=1",
		"tenants=kafka:name=a,tomcat:name=a", // duplicate explicit names
		// Non-finite numbers, populations past the cap (rejected before
		// they are allocated), and a skew that leaves a tenant no weight.
		"day=1,NaN;tenants=kafka",
		"arrival=gamma:+Inf;tenants=kafka",
		"tenants=kafka:weight=NaN",
		"tenants=kafka:weight=Inf",
		"zipf=Inf;tenants=kafka",
		"tenants=wordpress*257",
		"tenants=wordpress*100000000",
		"zipf=1e300;tenants=kafka,tomcat",
		"zipf=1.7976931348623157e308;tenants=kafka,tomcat,wordpress",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecMaterialCanonical(t *testing.T) {
	a, err := ParseSpec("seed=7;tenants=wordpress,kafka")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec(" seed=7 ; tenants= wordpress , kafka ")
	if err != nil {
		t.Fatal(err)
	}
	if a.Material() != b.Material() {
		t.Fatalf("equivalent specs have different material:\n%s\n%s", a.Material(), b.Material())
	}
	c, err := ParseSpec("seed=8;tenants=wordpress,kafka")
	if err != nil {
		t.Fatal(err)
	}
	if a.Material() == c.Material() {
		t.Fatal("different seeds share material")
	}
}

func TestSpecApps(t *testing.T) {
	s, err := ParseSpec("tenants=kafka,wordpress*2,kafka")
	if err != nil {
		t.Fatal(err)
	}
	apps := s.Apps()
	if len(apps) != 2 || apps[0] != "kafka" || apps[1] != "wordpress" {
		t.Fatalf("Apps() = %v", apps)
	}
}
