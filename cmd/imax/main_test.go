package main

// The tests drive the command the way a user does: TestMain re-executes
// the test binary as imax itself when imaxAsMain is set, so flag parsing,
// exit codes and both output streams are the real ones.

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const imaxAsMain = "IMAX_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(imaxAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// imax runs the command with args and returns its streams and exit code.
func imax(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), imaxAsMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("imax %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestGoldenPorts pins the default demo's whole stdout: the token count,
// the elapsed virtual time, every counter and the audit verdict.
func TestGoldenPorts(t *testing.T) {
	want, err := os.ReadFile("testdata/ports.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, code := imax(t, "-demo", "ports", "-audit")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if got != string(want) {
		t.Fatalf("stdout moved off testdata/ports.golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCornersPrintTheSameRun: the cache switch is host-side only, so
// default flags and -noxcache must print the same bytes — including the
// trace tail and counters that -trace appends. compute spins in the cached
// run loop; gc executes the create instruction.
func TestCornersPrintTheSameRun(t *testing.T) {
	for _, demo := range []string{"ports", "compute", "gc"} {
		base := []string{"-demo", demo, "-trace", "-audit"}
		ref, stderr, code := imax(t, append(base, "-noxcache")...)
		if code != 0 {
			t.Fatalf("%s -noxcache: exit %d, stderr:\n%s", demo, code, stderr)
		}
		if !strings.Contains(ref, "audit: all invariants hold") {
			t.Fatalf("%s -noxcache: audit verdict missing:\n%s", demo, ref)
		}
		got, stderr, code := imax(t, base...)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s", demo, code, stderr)
		}
		if got != ref {
			t.Errorf("%s prints a different run than with -noxcache:\n--- got ---\n%s--- want ---\n%s",
				demo, got, ref)
		}
	}
}

// TestInjectAcceptance: the fault-injection protocol passes end to end
// over both corners.
func TestInjectAcceptance(t *testing.T) {
	out, stderr, code := imax(t, "-inject", "42")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(out, "all corners identical, audit and confinement clean") {
		t.Fatalf("acceptance verdict missing:\n%s", out)
	}
}

// TestHostparFlagIsGone: the host-parallel backend was deleted, and its
// flag with it — asking for it is a usage error, not a silent no-op.
func TestHostparFlagIsGone(t *testing.T) {
	_, stderr, code := imax(t, "-hostpar")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (unknown flag)", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -hostpar") {
		t.Fatalf("stderr does not name the flag:\n%s", stderr)
	}
}

// TestNotraceFlagIsGone: the trace compiler was deleted, and its flag with
// it.
func TestNotraceFlagIsGone(t *testing.T) {
	_, stderr, code := imax(t, "-notrace")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (unknown flag)", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -notrace") {
		t.Fatalf("stderr does not name the flag:\n%s", stderr)
	}
}

// TestBadFlagValuesRejectedBeforeBoot: a value the machine cannot be built
// from is a usage error before anything boots or prints. -mem used to be
// cut to 32 bits (2³² booted the 16 MB default under a "4194304 KB"
// banner), -cpus 0 ran one processor, and a bad -demo printed the banner
// first.
func TestBadFlagValuesRejectedBeforeBoot(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-mem", []string{"-mem", "4294967296", "-demo", "compute"}},
		{"-mem", []string{"-mem", "4294967297"}},
		{"-cpus", []string{"-cpus", "0"}},
		{"-cpus", []string{"-cpus", "-3"}},
		{"-demo", []string{"-demo", "nope"}},
	} {
		stdout, stderr, code := imax(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout != "" {
			t.Errorf("%v: printed before rejecting:\n%s", tc.args, stdout)
		}
		if !strings.HasPrefix(stderr, "imax: "+tc.flag+" ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr is not one line naming %s:\n%s", tc.args, tc.flag, stderr)
		}
	}
}

// TestBannerReportsTheBootedMachine: -mem 0 selects the 16 MB default, and
// the banner says what was booted, not what was typed.
func TestBannerReportsTheBootedMachine(t *testing.T) {
	stdout, stderr, code := imax(t, "-mem", "0", "-cpus", "3", "-gc=false")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	const want = "iMAX-432: 3 processors, 16384 KB memory, non-swapping memory manager, gc=false\n"
	if !strings.HasPrefix(stdout, want) {
		t.Fatalf("banner:\n%s\nwant:\n%s", stdout, want)
	}
}
