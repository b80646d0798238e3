package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the module root, so the
// benchmark works from the checkout root (go run ./benchmark) and from its
// own directory (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("locating module root: %w", err)
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module prefdb\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("module root (go.mod of module prefdb) not found above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles the server command into the checkout's build
// directory. go build is a no-op when the binary is current; its time is
// never part of setup_s.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "prefdbserver")
	cmd := exec.Command("go", "build", "-o", bin, serverPackage)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", serverPackage, err, out)
	}
	return bin, nil
}

// serverProc is a running prefdbserver child.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed when the stdout reader has finished
}

// startServer launches the server over a snapshot and waits for the banner
// that carries the bound address. The server's stderr (drain notices, and
// the stack trace should it crash) is appended to logPath.
func startServer(bin, snapshot, logPath string) (*serverProc, error) {
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server log: %w", err)
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, serverArgs(snapshot)...)
	cmd.Stderr = logFile
	dieWithParent(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("server stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), serverBanner); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
				break
			}
		}
		// Keep the pipe empty so the server never blocks on a log line.
		_, _ = io.Copy(io.Discard, stdout)
		close(addrc)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok || addr == "" {
			_ = s.stop()
			return nil, errors.New("server exited before announcing its address")
		}
		s.addr = addr
		return s, nil
	case <-time.After(60 * time.Second):
		_ = s.stop()
		return nil, errors.New("server did not announce its address within 60 s")
	}
}

// alive reports whether the child is still running. A child that crashed
// stays a zombie until stop reaps it, and a zombie still accepts signals, so
// this reads the process state instead.
func (s *serverProc) alive() bool {
	state := procStatus(s.cmd.Process.Pid, "State:")
	return state != "" && !strings.HasPrefix(state, "Z") && !strings.HasPrefix(state, "X")
}

// stop drains and ends the server (SIGTERM, then SIGKILL after 10 s) and
// waits until the process and its stdout reader are gone.
func (s *serverProc) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(10*time.Second, func() { _ = s.cmd.Process.Kill() })
	<-s.drained
	err := s.cmd.Wait()
	timer.Stop()
	if err != nil {
		return fmt.Errorf("server exit: %w", err)
	}
	return nil
}

// procStatus returns the value of one line of /proc/<pid>/status ("" if the
// process or the line is gone); pid 0 means this process.
func procStatus(pid int, key string) string {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// peakRSSMB is VmHWM (the peak resident set) of a process, 0 if unreadable.
func peakRSSMB(pid int) float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(procStatus(pid, "VmHWM:"), "kB")), 64)
	return kb / 1024
}
