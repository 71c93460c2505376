package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet tracks every child process still running so that all exit paths
// can stop them and wait for them.
type procSet struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

// child is one started program.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
	err  error         // Wait's error, valid after done
	set  *procSet
}

// start launches bin with args, sending its output to logPath.
func (s *procSet) start(logPath, bin string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	c := &child{cmd: cmd, done: make(chan struct{}), set: s}
	go func() {
		c.err = cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	s.mu.Lock()
	if s.live == nil {
		s.live = map[*child]struct{}{}
	}
	s.live[c] = struct{}{}
	s.mu.Unlock()
	return c, nil
}

// pid is the child's process id.
func (c *child) pid() int { return c.cmd.Process.Pid }

// exited reports whether the child has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM, escalates to SIGKILL after 20 s, and waits for exit.
func (c *child) stop() {
	if !c.exited() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // it may exit on its own meanwhile
		select {
		case <-c.done:
		case <-time.After(20 * time.Second):
			_ = c.cmd.Process.Kill() // already exiting is fine
			<-c.done
		}
	}
	c.set.mu.Lock()
	delete(c.set.live, c)
	c.set.mu.Unlock()
}

// stopAll stops every child still running.
func (s *procSet) stopAll() {
	s.mu.Lock()
	all := make([]*child, 0, len(s.live))
	for c := range s.live {
		all = append(all, c)
	}
	s.mu.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// cpuTime sums the run time of every thread of pid from
// /proc/<pid>/task/*/schedstat, in nanoseconds. Threads that already
// exited are not counted; the Go runtime rarely retires threads.
func cpuTime(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread ended between listing and reading
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s schedstat: %w", t.Name(), err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// statusMB reads a kB field of /proc/<pid>/status, such as VmRSS or
// VmHWM (the peak), in MB.
func statusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// hostTicks reads the machine-wide CPU time from /proc/stat: steal ticks
// (time the hypervisor ran something else) and all ticks.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64) // a malformed field only blurs a diagnostic
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// rssSampler records a process's resident set size at a fixed interval
// until stopped. Samples after the process exits are skipped.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS(pid int, every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if mb, err := statusMB(pid, "VmRSS"); err == nil {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// end stops sampling and returns the samples in MB.
func (s *rssSampler) end() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// window measures one daemon over a timed window: its CPU time, its
// resident memory sampled every 100 ms, and the host's steal time.
type window struct {
	pid          int
	cpu0         time.Duration
	steal0, tot0 int64
	rss          *rssSampler
}

func watch(pid int) (*window, error) {
	w := &window{pid: pid}
	var err error
	if w.cpu0, err = cpuTime(pid); err != nil {
		return nil, err
	}
	w.steal0, w.tot0 = hostTicks()
	w.rss = sampleRSS(pid, 100*time.Millisecond)
	return w, nil
}

// end stops sampling and returns the window's CPU time in ms and the
// median resident memory in MB; it reports the peak and the steal share.
func (w *window) end(e *env) (cpuMs, rssMB float64, err error) {
	samples := w.rss.end()
	cpu1, err := cpuTime(w.pid)
	if err != nil {
		return 0, 0, err
	}
	peak, err := statusMB(w.pid, "VmHWM")
	if err != nil {
		return 0, 0, err
	}
	rssMB = median(samples)
	e.line("max_rss_mb", peak, "MB", fmt.Sprintf("peak; median of n=%d VmRSS samples is %.1f MB", len(samples), rssMB))
	e.stealLine(w.steal0, w.tot0)
	return float64(cpu1-w.cpu0) / 1e6, rssMB, nil
}

// stealLine reports the host's steal share since the given ticks.
func (e *env) stealLine(steal0, tot0 int64) {
	steal1, tot1 := hostTicks()
	if tot1 > tot0 {
		e.line("host_steal_frac", float64(steal1-steal0)/float64(tot1-tot0), "ratio",
			"CPU time the hypervisor gave to other guests during the window")
	}
}
