package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/indepd from the tree at root into dir.
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "indepd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/indepd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build indepd: %v\n%s", err, out)
	}
	return bin, nil
}

// tailBuf keeps the last max bytes written to it: a daemon's stderr, kept
// to print when the daemon misbehaves.
type tailBuf struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// proc is one daemon process started by the benchmark.
type proc struct {
	role   string // daemon, router, or shard
	name   string
	cmd    *exec.Cmd
	addr   string // host:port from the "listening" log line
	stderr *tailBuf
	exited chan struct{}
}

func (p *proc) url() string { return "http://" + p.addr }

// procSet owns every child process of a run; killAll stops them on every
// exit path.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// start launches bin with args and waits for its "listening" log line,
// which names the address it bound (every daemon binds 127.0.0.1:0).
func (ps *procSet) start(bin, role, name string, args ...string) (*proc, error) {
	p := &proc{role: role, name: name, stderr: &tailBuf{max: 64 << 10}, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			p.stderr.Write([]byte(line + "\n"))
			if !found && strings.Contains(line, "msg=listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						found = true
						addrc <- a
					}
				}
			}
		}
		io.Copy(io.Discard, pipe)
		p.cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening:\n%s", name, p.stderr)
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not log its listening address within 60s:\n%s", name, p.stderr)
	}
}

// waitReady polls /readyz until it answers 200; past the deadline it kills
// the process and reports its stderr.
func (p *proc) waitReady(deadline time.Time) error {
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(p.url() + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before ready:\n%s", p.name, p.stderr)
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return fmt.Errorf("%s missed its /readyz deadline:\n%s", p.name, p.stderr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *proc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Signal(syscall.SIGKILL)
	}
	<-p.exited
}

func (ps *procSet) killAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// ---- /proc readers -----------------------------------------------------

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime in seconds from /proc/<pid>/stat
// contents. The command name (field 2) may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTicks, nil
}

// parseStatusHWM returns VmHWM, the peak resident set, in bytes from
// /proc/<pid>/status contents.
func parseStatusHWM(data []byte) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: bad VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: bad VmHWM line %q", line)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// hostSteal returns the host-wide steal ticks and total ticks from
// /proc/stat: time the hypervisor gave this machine's CPUs to others, which
// slows a run without showing in any process's CPU time. Zeros when the
// file cannot be read.
func hostSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // guest time (fields 9, 10) is already inside user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

func (p *proc) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(data)
}

// cpuOf sums the CPU seconds of the processes.
func cpuOf(ps []*proc) (map[*proc]float64, error) {
	out := make(map[*proc]float64, len(ps))
	for _, p := range ps {
		s, err := p.cpuSeconds()
		if err != nil {
			return nil, err
		}
		out[p] = s
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src (no subdirectories) into a new
// directory dst and syncs them, so the copy's writeback is not left for the
// daemon's first fsync to pay inside its measured set-up time.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := writeSynced(filepath.Join(dst, e.Name()), data); err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
