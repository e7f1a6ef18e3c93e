package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// helperArg, as the first argument of the test binary, makes TestMain run
// the command's main with the arguments after it instead of the tests.
const helperArg = "run-otactl"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == helperArg {
		os.Args = append([]string{"otactl"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runOtactl runs otactl with args in a child process and returns its
// combined output and exit status.
func runOtactl(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{helperArg}, args...)...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	default:
		t.Fatalf("running otactl %v: %v", args, err)
		return "", 0
	}
}

// TestAttackRejectsEmptyFleet is the regression test for `otactl attack
// -fleet 0`, which indexed the empty fleet's first vehicle and panicked:
// a fleet below one vehicle must be refused with exit status 1 and a
// message naming the flag.
func TestAttackRejectsEmptyFleet(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		out, code := runOtactl(t, "attack", "-fleet", n)
		if code != 1 || strings.Contains(out, "panic") || !strings.Contains(out, "-fleet") {
			t.Errorf("otactl attack -fleet %s: exit status %d, output:\n%s\nwant status 1 and a message naming -fleet, without a panic", n, code, out)
		}
	}
}

// TestAttackSmallFleet runs the attack subcommand end to end on a
// one-vehicle fleet, the smallest it accepts.
func TestAttackSmallFleet(t *testing.T) {
	out, code := runOtactl(t, "attack", "-fleet", "1", "-models", "1")
	if code != 0 || !strings.Contains(out, "accepted by 1/1 vehicles") {
		t.Fatalf("otactl attack -fleet 1: exit status %d, output:\n%s", code, out)
	}
}
