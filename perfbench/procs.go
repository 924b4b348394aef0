package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleet is a set of partitiond processes started by the benchmark: one
// standalone node, or a cluster whose every node lists all of them in
// -peers. Flags other than the addresses are the shipped defaults.
type fleet struct {
	nodes []*node
}

type node struct {
	cmd    *exec.Cmd
	args   []string
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{} // closed once the process has been waited for
}

// freePorts reserves n distinct loopback ports by listening on them at
// once, then releases them for the servers to bind.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// startFleet execs n partitiond processes; their logs go to logDir.
func startFleet(bin string, n int, logDir string) (*fleet, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, n)
	for i, p := range ports {
		addrs[i] = "127.0.0.1:" + strconv.Itoa(p)
	}
	f := &fleet{}
	for i, addr := range addrs {
		args := []string{"-addr", addr}
		if n > 1 {
			args = append(args, "-peers", strings.Join(addrs, ","), "-self", addr)
		}
		logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("partitiond-%d.log", i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// Should the benchmark itself be killed, the kernel stops the
		// servers too.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			f.stop()
			return nil, fmt.Errorf("start partitiond: %w", err)
		}
		nd := &node{cmd: cmd, args: args, base: "http://" + addr, log: logf, exited: make(chan struct{})}
		go func() {
			cmd.Wait()
			close(nd.exited)
		}()
		f.nodes = append(f.nodes, nd)
	}
	return f, nil
}

// waitReady polls until every node answers /healthz and, for a cluster,
// every node's /v1/cluster reports all peers alive.
func (f *fleet) waitReady(ctx context.Context, c *http.Client) error {
	for _, nd := range f.nodes {
		for {
			if ok, _ := nd.getOK(ctx, c, "/healthz", nil); ok {
				break
			}
			select {
			case <-nd.exited:
				return fmt.Errorf("partitiond %s exited; see its log", nd.base)
			case <-ctx.Done():
				return fmt.Errorf("partitiond %s not healthy: %w", nd.base, ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	if len(f.nodes) == 1 {
		return nil
	}
	for _, nd := range f.nodes {
		for {
			var st struct {
				Alive int `json:"alive"`
			}
			if ok, _ := nd.getOK(ctx, c, "/v1/cluster", &st); ok && st.Alive == len(f.nodes) {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("cluster view of %s incomplete: %w", nd.base, ctx.Err())
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// getOK GETs path and reports whether it answered 200, decoding a JSON body
// into out when out is non-nil.
func (nd *node) getOK(ctx context.Context, c *http.Client, path string, out any) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.base+path, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, nil
	}
	if out != nil {
		return true, json.NewDecoder(resp.Body).Decode(out)
	}
	return true, nil
}

// stop drains every node with SIGTERM and waits for it to exit, killing
// any that outlive the drain.
func (f *fleet) stop() {
	for _, nd := range f.nodes {
		if nd.cmd.Process != nil {
			nd.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, nd := range f.nodes {
		select {
		case <-nd.exited:
		case <-time.After(20 * time.Second):
			nd.cmd.Process.Kill()
			<-nd.exited
		}
		nd.log.Close()
	}
	f.nodes = nil
}

// cpuTicks sums user+system CPU of every node in clock ticks.
func (f *fleet) cpuTicks() (int64, error) {
	var total int64
	for _, nd := range f.nodes {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", nd.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may contain spaces; fields after its
		// closing parenthesis are fixed: utime and stime are the 12th and
		// 13th of them.
		i := bytes.LastIndexByte(b, ')')
		fields := strings.Fields(string(b[i+1:]))
		if len(fields) < 13 {
			return 0, errors.New("short /proc stat line")
		}
		for _, fld := range fields[11:13] {
			v, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return 0, err
			}
			total += v
		}
	}
	return total, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times. Linux
// fixes it at 100 on every architecture the benchmark runs on.
const clockTick = 10 * time.Millisecond

// peakRSSKB sums the nodes' peak resident set size (VmHWM) in KiB.
func (f *fleet) peakRSSKB() (int64, error) {
	var total int64
	for _, nd := range f.nodes {
		fh, err := os.Open(fmt.Sprintf("/proc/%d/status", nd.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(fh)
		found := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				v, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
				if err != nil {
					fh.Close()
					return 0, err
				}
				total += v
				found = true
				break
			}
		}
		fh.Close()
		if !found {
			return 0, errors.New("no VmHWM in /proc status")
		}
	}
	return total, nil
}

// flags renders the command lines the nodes were started with.
func (f *fleet) flags() []string {
	out := make([]string, len(f.nodes))
	for i, nd := range f.nodes {
		out[i] = "partitiond " + strings.Join(nd.args, " ")
	}
	return out
}

// bases lists the nodes' base URLs.
func (f *fleet) bases() []string {
	out := make([]string, len(f.nodes))
	for i, nd := range f.nodes {
		out[i] = nd.base
	}
	return out
}
