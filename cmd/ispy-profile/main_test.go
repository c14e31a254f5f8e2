package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/traceio"
)

// TestMain lets a test re-run the binary's main with its own arguments, so
// exit codes and stderr are checked as a user sees them.
func TestMain(m *testing.M) {
	if os.Getenv("ISPY_PROFILE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownAppsExitCleanly: an unknown app — on the command line or named
// inside a saved profile — prints an error naming the valid presets and
// exits 1, never a panic and stack trace.
func TestUnknownAppsExitCleanly(t *testing.T) {
	dir := t.TempDir()
	bogus := filepath.Join(dir, "bogus.profile")
	f, err := os.Create(bogus)
	if err != nil {
		t.Fatal(err)
	}
	if err := traceio.WriteProfile(f, &traceio.ProfileData{WorkloadName: "bogus", Graph: cfg.NewGraph(0)}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	for name, args := range map[string][]string{
		"collect":      {"collect", "-app", "bogus", "-o", out},
		"eval":         {"eval", "-app", "bogus", "-prog", out},
		"build":        {"build", "-profile", bogus, "-o", out},
		"info profile": {"info", "-profile", bogus},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ISPY_PROFILE_RUN_MAIN=1")
		stderr, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit status 1", name, err)
		}
		msg := string(stderr)
		if !strings.HasPrefix(msg, `ispy-profile: workload: unknown app preset "bogus" (valid: `) ||
			strings.Contains(msg, "goroutine") {
			t.Errorf("%s: output = %q, want one error line naming the valid presets", name, msg)
		}
	}
}
