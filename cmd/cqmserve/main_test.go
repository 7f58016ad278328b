package main

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run cqmserve's main on its
// own arguments instead of the tests: the tests re-execute themselves to
// get a real daemon process without building one.
const runMainEnv = "CQMSERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSIGTERMAtStartupDrains(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-binary", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	hung := time.AfterFunc(2*time.Minute, func() { _ = cmd.Process.Kill() })
	// Whichever way the test ends, a t.Fatal included, the daemon is killed
	// and reaped; after a clean exit both calls fail harmlessly.
	t.Cleanup(func() {
		hung.Stop()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	// Signal the moment the last address line appears, as a supervisor
	// that waits only for the daemon to be reachable would.
	var out []string
	signalled, drained := false, false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		out = append(out, line)
		if !signalled && strings.HasPrefix(line, "binary:") {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			signalled = true
		}
		drained = drained || strings.HasPrefix(line, "drained:")
	}
	err = cmd.Wait()
	if !signalled {
		t.Fatalf("no binary: line; stdout:\n%s\nstderr:\n%s", strings.Join(out, "\n"), stderr.String())
	}
	if err != nil || !drained {
		t.Fatalf("exit %v, drained line %v; stdout:\n%s\nstderr:\n%s", err, drained, strings.Join(out, "\n"), stderr.String())
	}
}
