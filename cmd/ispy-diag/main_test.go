package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run the binary's main with its own arguments, so
// exit codes and stderr are checked as a user sees them.
func TestMain(m *testing.M) {
	if os.Getenv("ISPY_DIAG_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownAppsExitCleanly: an unknown app on the command line prints an
// error naming the valid presets and exits 1 before any app is analyzed,
// never a panic and stack trace.
func TestUnknownAppsExitCleanly(t *testing.T) {
	for name, args := range map[string][]string{
		"compare":            {"compare", "bogus"},
		"residual":           {"residual", "bogus"},
		"compare after good": {"compare", "tomcat", "bogus"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ISPY_DIAG_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit status 1", name, err)
		}
		msg := string(out)
		if !strings.HasPrefix(msg, `ispy-diag: workload: unknown app preset "bogus" (valid: `) ||
			strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
			t.Errorf("%s: output = %q, want one error line naming the valid presets", name, msg)
		}
	}
}
