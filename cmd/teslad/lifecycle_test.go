package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lifecycleStatus is the slice of /status the lifecycle test asserts on.
type lifecycleStatus struct {
	StepMinutes int       `json:"step_minutes"`
	EnergyKWh   float64   `json:"energy_kwh"`
	Durability  durStatus `json:"durability"`
}

var operatorLine = regexp.MustCompile(`operator http://([0-9.:]+[0-9])`)

// tesladProc wraps one running teslad process for the lifecycle test.
type tesladProc struct {
	cmd  *exec.Cmd
	addr string
	out  *bytes.Buffer
	mu   *sync.Mutex
	done chan error
	// exited closes once cmd.Wait has returned, eof once the scanner has
	// read the pipe to its end: Wait can return before the scanner has
	// consumed the process's last lines.
	exited, eof chan struct{}
}

// output returns what the process has printed so far — all of it once the
// process has exited.
func (p *tesladProc) output() string {
	select {
	case <-p.exited:
		<-p.eof
	default:
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// startTeslad launches the built daemon and waits for its operator endpoint
// to come up.
func startTeslad(t *testing.T, bin string, args ...string) *tesladProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = pw
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	p := &tesladProc{cmd: cmd, out: &bytes.Buffer{}, mu: &sync.Mutex{}, done: make(chan error, 1),
		exited: make(chan struct{}), eof: make(chan struct{})}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			fmt.Fprintln(p.out, line)
			p.mu.Unlock()
			if m := operatorLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		err := cmd.Wait()
		close(p.exited)
		p.done <- err
	}()

	select {
	case p.addr = <-addrCh:
	case err := <-p.done:
		t.Fatalf("teslad exited before publishing its operator endpoint: %v\n%s", err, p.output())
	case <-time.After(60 * time.Second):
		t.Fatalf("teslad never published its operator endpoint\n%s", p.output())
	}
	return p
}

// pollStatus polls /status until cond holds (or the deadline passes).
func pollStatus(t *testing.T, p *tesladProc, cond func(lifecycleStatus) bool) lifecycleStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var last lifecycleStatus
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + p.addr + "/status")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&last)
			resp.Body.Close()
			if err == nil && cond(last) {
				return last
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("status condition never held; last %+v\n%s", last, p.output())
	return last
}

// TestTesladShutdownAndRecovery is the process-lifecycle check for the
// graceful-shutdown fix: run the real binary with a durable store and a WAL
// fsync batch far larger than the step count (so nothing is durable unless
// the SIGTERM path flushes), stop it mid-run with SIGTERM, restart it on the
// same -datadir, and require the second process to resume from every step the
// first one executed.
func TestTesladShutdownAndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "teslad")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building teslad: %v\n%s", err, out)
	}
	datadir := t.TempDir()
	args := []string{"-policy", "fixed", "-minutes", "0", "-datadir", datadir,
		"-walsync", "100000", "-checkpoint", "5"}

	p1 := startTeslad(t, bin, args...)
	st1 := pollStatus(t, p1, func(s lifecycleStatus) bool { return s.StepMinutes >= 10 })
	if !st1.Durability.Enabled {
		t.Fatalf("durability not enabled: %+v", st1.Durability)
	}
	if err := p1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p1.done:
		if err != nil {
			t.Fatalf("teslad exited non-zero after SIGTERM: %v\n%s", err, p1.output())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("teslad did not exit after SIGTERM\n%s", p1.output())
	}
	if out := p1.output(); !strings.Contains(out, "durable store flushed") {
		t.Fatalf("shutdown never flushed the durable store:\n%s", out)
	}

	p2 := startTeslad(t, bin, args...)
	st2 := pollStatus(t, p2, func(s lifecycleStatus) bool { return s.Durability.Recovered })
	if st2.Durability.RecoveredSteps < st1.StepMinutes {
		t.Fatalf("recovered %d steps, first process had executed at least %d — the SIGTERM flush lost steps (WAL batch was %s)",
			st2.Durability.RecoveredSteps, st1.StepMinutes, "100000")
	}
	// The restarted daemon keeps counting where the durable record ends.
	st2 = pollStatus(t, p2, func(s lifecycleStatus) bool {
		return s.StepMinutes > st2.Durability.RecoveredSteps
	})
	if st2.EnergyKWh <= 0 {
		t.Fatalf("recovered energy counter not restored: %+v", st2)
	}
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p2.done:
		if err != nil {
			t.Fatalf("restarted teslad exited non-zero after SIGTERM: %v\n%s", err, p2.output())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("restarted teslad did not exit after SIGTERM\n%s", p2.output())
	}
}
