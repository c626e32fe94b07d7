package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one wrapserved child process.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  string // path of its stderr
	done chan struct{}
}

// fleet is the set of processes one workload talks to: front is the
// address requests go to, procs everything whose CPU and memory count as
// the server's.
type fleet struct {
	front string
	procs []*proc
}

// freeAddr reserves an ephemeral loopback port and releases it for a child
// to claim.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts wrapserved with the given flags on a free port. The child is
// killed by the kernel if this process dies without stopping it.
func spawn(bin, dir, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, addr: addr, log: filepath.Join(dir, name+".log"), done: make(chan struct{})}
	logf, err := os.Create(p.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	p.cmd = exec.Command(bin, append([]string{"-addr", addr, "-drain-timeout", "5s"}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a stopped server says nothing
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain and waits until it has ended, killing it if
// it does not within the daemon's own drain budget.
func (p *proc) stop() {
	if p == nil || p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(7 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	// Front first, as a fleet is drained; order is moot for one process.
	for _, p := range f.procs {
		p.stop()
	}
}

// awaitHealthy polls /healthz until the process answers 200.
func (p *proc) awaitHealthy(budget time.Duration) error {
	wire := encodeRequest("GET", "/healthz", nil)
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot:\n%s", p.name, p.logTail())
		default:
		}
		if c, err := dial(p.addr); err == nil {
			status, _, err := c.roundTrip(wire, time.Second)
			c.close()
			if err == nil && status == 200 {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v:\n%s", p.name, budget, p.logTail())
}

func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It is
// 100 on every Linux the Go toolchain supports.
const clockTick = 100

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU reads utime+stime (fields 14 and 15) from a /proc stat line.
// The command name, field 2, may itself hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat cpu fields %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTick, nil
}

// statusMB reads one memory field (VmRSS, VmHWM) of /proc/<pid>/status.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// cpu sums the CPU seconds of every server process.
func (f *fleet) cpu() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		s, err := cpuSeconds(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// memMB sums one memory field over every server process: VmRSS is the
// resident set now, VmHWM its high-water mark.
func (f *fleet) memMB(field string) (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		mb, err := statusMB(p.cmd.Process.Pid, field)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
