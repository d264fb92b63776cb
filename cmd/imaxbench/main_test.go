package main

// The tests drive the command the way a user does: TestMain re-executes
// the test binary as imaxbench itself when imaxbenchAsMain is set, so flag
// parsing, exit codes and both output streams are the real ones.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/experiments"
)

const imaxbenchAsMain = "IMAXBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(imaxbenchAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// imaxbench runs the command with args and returns its streams and exit code.
func imaxbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), imaxbenchAsMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("imaxbench %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestListGolden pins the experiment inventory the command exposes.
func TestListGolden(t *testing.T) {
	const want = "E1\nE2\nE3\nE4\nE5\nE6\nE7\nE8\nE9\nE10\nE11\nE12\nE13\nE14\n"
	got, stderr, code := imaxbench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if got != want {
		t.Fatalf("-list printed:\n%s--- want ---\n%s", got, want)
	}
}

func TestRunOneExperiment(t *testing.T) {
	out, stderr, code := imaxbench(t, "-run", "E1")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(out, "=== E1: ") || !strings.Contains(out, "[PASS]") {
		t.Fatalf("E1 did not print a passing result:\n%s", out)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	out, stderr, code := imaxbench(t, "-run", "E99")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(stderr, "E99") {
		t.Fatalf("stderr does not name the id:\n%s", stderr)
	}
}

// TestBenchFlagsAreGone: the legacy bench runners were deleted, and their
// flags with them — asking for one is a usage error, not a silent no-op.
func TestBenchFlagsAreGone(t *testing.T) {
	_, stderr, code := imaxbench(t, "-bench-pr8", "x")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (unknown flag)", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -bench-pr8") {
		t.Fatalf("stderr does not name the flag:\n%s", stderr)
	}
}

// TestReportExitRule: one failed experiment makes the exit code 1 in both
// output formats; -md used to return 0 with a ❌ row in the output.
func TestReportExitRule(t *testing.T) {
	pass := &experiments.Result{ID: "E1", Header: []string{"h"}, Pass: true}
	fail := &experiments.Result{ID: "E2", Header: []string{"h"}, Pass: false}
	for _, md := range []bool{false, true} {
		if code := report(io.Discard, []*experiments.Result{pass}, md); code != 0 {
			t.Errorf("md=%v: all passed but exit %d", md, code)
		}
		if code := report(io.Discard, []*experiments.Result{pass, fail}, md); code != 1 {
			t.Errorf("md=%v: a failed experiment but exit %d", md, code)
		}
	}
}
