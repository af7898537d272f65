package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one brsmnd process started from the binary built out of the
// checkout. Only the flags -addr -n -epoch -epoch-threshold are used,
// so serving-layer refactors need no benchmark change.
type daemon struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the process has been waited for
}

// startDaemon launches bin with the given extra flags on a free
// loopback port and waits until /healthz answers.
func startDaemon(bin string, flags []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = nil, os.Stderr
	// The daemon must not outlive the benchmark, even if the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries nothing
		close(d.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("brsmnd exited during start: %v", cmd.ProcessState)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("brsmnd did not answer /healthz within 30s")
		}
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a loopback port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop sends SIGTERM, waits for a graceful exit and kills after 10s. It
// returns once the process has ended; stopping twice is harmless.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 100

// cpuSeconds is the daemon's user+system CPU time so far, summed over
// all its threads. It does not include steal.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// memMB reads one memory field of /proc/<pid>/status, such as VmHWM, in MiB.
func (d *daemon) memMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// hostCPU is the aggregate "cpu" line of /proc/stat: total jiffies and
// the steal share of them.
type hostCPU struct{ total, steal float64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var h hostCPU
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		// guest and guest_nice (fields 9, 10) are already in user/nice.
		if i < 8 {
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

// stealPct is the host-wide steal share between two readings.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}
