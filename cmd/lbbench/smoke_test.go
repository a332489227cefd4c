//go:build linux

package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Checks that need the real binaries: lbbench's signals and exit codes, the
// local launcher killing and stopping real children, and lbserved's flags,
// SIGTERM drain and record flush. The rest is pinned in-process.

var binDir string // holds the lbbench and lbserved TestMain builds

func TestMain(m *testing.M) {
	var out []byte
	var err error
	binDir, err = os.MkdirTemp("", "lbbench-smoke")
	if err == nil {
		out, err = exec.Command("go", "build", "-o", binDir, "repro/cmd/lbbench", "repro/cmd/lbserved").CombinedOutput()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "building the binaries: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// sweep is the grid the signal checks run: 48 units of tens of ms each, so
// a signal sent after the first cells lands with most of the sweep to run.
// Fixed round counts (eps below reach) keep shards inside -steal-after.
var sweep = strings.Fields(`lbbench -grid -topos torus,hypercube -algos diffusion,randpair
	-modes continuous,discrete -loads spike -scenarios static,poisson-arrivals
	-n 4096 -seeds 1,2,3 -eps 1e-12 -rounds 256 -format csv -parallel 1`)

func with(extra ...string) []string { return append(sweep[:len(sweep):len(sweep)], extra...) }

func run(t *testing.T, argv ...string) (stdout, stderr string, exit int) {
	t.Helper()
	p := start(t, argv...)
	exit = p.exit(t)
	return p.out.String(), readFile(p.log), exit
}

func runOK(t *testing.T, argv ...string) string {
	t.Helper()
	out, _, code := run(t, argv...)
	if code != 0 {
		t.Fatalf("%s: exit %d", strings.Join(argv, " "), code)
	}
	return out
}

func sameBytes(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s differs from the expected bytes (%d bytes, want %d)", what, len(got), len(want))
	}
}

// readFile returns the file's bytes, or "" if it cannot be read.
func readFile(path string) string {
	b, _ := os.ReadFile(path)
	return string(b)
}

// proc is a binary running in the background, its stderr in a file.
type proc struct {
	*exec.Cmd
	log  string
	out  strings.Builder
	done chan struct{}
}

// start launches argv. Should the test fail, it logs the tail of the
// process's stderr (for lbbench -spawn, the supervisor log).
func start(t *testing.T, argv ...string) *proc {
	t.Helper()
	p := &proc{Cmd: exec.Command(filepath.Join(binDir, argv[0]), argv[1:]...), log: t.TempDir() + "/stderr", done: make(chan struct{})}
	f, err := os.Create(p.log)
	if err != nil {
		t.Fatal(err)
	}
	p.Stdout, p.Stderr = &p.out, f
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.Wait(); f.Close(); close(p.done) }()
	t.Cleanup(func() {
		p.Process.Kill()
		<-p.done
		if log := readFile(p.log); t.Failed() {
			t.Logf("%s stderr ends:\n%s", argv[0], log[max(0, len(log)-2000):])
		}
	})
	return p
}

func (p *proc) exit(t *testing.T) int {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		t.Fatalf("%s still running after a minute", p.Path)
	}
	return p.ProcessState.ExitCode()
}

// waitFor polls cond until it holds; p exiting first fails the test.
func (p *proc) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for timeout := time.After(30 * time.Second); !cond(); {
		select {
		case <-p.done:
			t.Fatalf("%s exited before %s", p.Path, what)
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// signalShard sends sig to the child of p's -spawn 3 -out dir running
// -shard i/3 once its journal holds n lines. The child must still be
// running: a signal that never lands fails the check.
func (p *proc) signalShard(t *testing.T, dir string, i, n int, sig syscall.Signal) {
	t.Helper()
	p.waitFor(t, fmt.Sprintf("%d lines of shard %d", n, i), func() bool { return strings.Count(readFile(fmt.Sprintf("%s/shard-%d.jsonl", dir, i)), "\n") >= n })
	cmdlines, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, path := range cmdlines {
		argv, _ := os.ReadFile(path)
		if !strings.Contains(string(argv), fmt.Sprintf("\x00-shard\x00%d/3\x00", i)) || !strings.Contains(string(argv), dir) {
			continue
		}
		pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
		child, _ := os.FindProcess(pid) // cannot fail on Unix
		t.Cleanup(func() { child.Kill() })
		if err := child.Signal(sig); err != nil {
			t.Fatalf("signalling shard %d/3: %v", i, err)
		}
		return
	}
	t.Fatalf("shard %d/3 is not running", i)
}

func TestBinaries(t *testing.T) {
	full, fullAgg := runOK(t, sweep...), runOK(t, with("-stream-agg")...)

	// SIGINT mid-sweep exits 3; resuming in place re-runs exactly the
	// cells the journal lacks and reports the same bytes.
	t.Run("resume after SIGINT", func(t *testing.T) {
		dir := t.TempDir()
		j := dir + "/cells.jsonl"
		p := start(t, with("-out", j)...)
		p.waitFor(t, "4 journal lines", func() bool { return strings.Count(readFile(j), "\n") >= 4 })
		if err := p.Process.Signal(os.Interrupt); err != nil || p.exit(t) != exitInterrupted {
			t.Fatalf("SIGINT (%v): exit %d, want %d", err, p.exit(t), exitInterrupted)
		}
		journal := readFile(j)
		done := strings.Count(journal, "\n") - 1 - strings.Count(journal, `"error"`)
		sameBytes(t, "resumed report", runOK(t, with("-resume", j, "-out", j, "-trace-out", dir+"/trace.json")...), full)
		if ran := strings.Count(readFile(dir+"/trace.json"), `"cat":"unit"`); ran != 48-done {
			t.Fatalf("resume ran %d units; the journal held %d of 48", ran, done)
		}
	})

	// -spawn 3 with one child SIGKILLed restarts it with -resume and merges
	// byte-identical, classic and -stream-agg; a merge missing a shard
	// fails loudly.
	t.Run("spawn with a child SIGKILLed", func(t *testing.T) {
		dir := t.TempDir()
		p := start(t, with("-spawn", "3", "-out", dir)...)
		p.signalShard(t, dir, 1, 4, syscall.SIGKILL)
		if code := p.exit(t); code != 0 || !strings.Contains(readFile(p.log), "restarting with -resume") {
			t.Fatalf("exit %d; want 0 and a restart with -resume", code)
		}
		sameBytes(t, "spawned report", p.out.String(), full)
		shards := []string{dir + "/shard-0.jsonl", dir + "/shard-1.jsonl", dir + "/shard-2.jsonl"}
		sameBytes(t, "-merge -stream-agg", runOK(t, with("-merge", strings.Join(shards, ","), "-stream-agg")...), fullAgg)
		if _, stderr, code := run(t, with("-merge", strings.Join(shards[:2], ","), "-stream-agg")...); code != exitFailedUnits || !strings.Contains(stderr, "never merged in") {
			t.Fatalf("merge missing a shard: exit %d, stderr %q", code, stderr)
		}
		sameBytes(t, "-spawn -stream-agg", runOK(t, with("-spawn", "3", "-stream-agg", "-out", t.TempDir())...), fullAgg)
	})

	// A SIGSTOPped child is declared stalled and killed, and its remaining
	// units run as stolen sub-shards whose journals record their origin.
	t.Run("steal after SIGSTOP", func(t *testing.T) {
		dir := t.TempDir()
		p := start(t, with("-spawn", "3", "-out", dir, "-steal-after", "1s", "-progress", "50ms")...)
		p.signalShard(t, dir, 1, 3, syscall.SIGSTOP)
		if code := p.exit(t); code != 0 || !regexp.MustCompile(`task s1 stalled for 1s — killing it to steal its remaining units\n(?s:.*)`+
			`task s1 killed .* reassigned to \d+ stolen sub-shard(?s:.*)task summary:.* s1 restarts=0 stolen=[1-9]`).MatchString(readFile(p.log)) {
			t.Fatalf("exit %d; want 0 and a log of the stall, the steal and s1 restarts=0 stolen≥1", code)
		}
		sameBytes(t, "report after a steal", p.out.String(), full)
		if head, _, _ := strings.Cut(readFile(dir+"/shard-1-steal-1.jsonl"), "\n"); !strings.Contains(head, `"origin":"steal:s1"`) {
			t.Fatalf("stolen journal header %s lacks the steal origin", head)
		}
	})

	// Exit codes TestCheckFlagCombos cannot reach; none may leave a journal.
	// lbserved cannot listen on port -1, so one past flag checks exits 1.
	t.Run("exit codes", func(t *testing.T) {
		x := t.TempDir() + "/x.jsonl"
		for argv, want := range map[string]int{
			"lbbench -grid -shard 0/0 -out " + x:                                   exitBadCount,
			"lbbench -grid -shard 5/3 -out " + x:                                   exitBadCount,
			"lbbench -grid -shard banana -out " + x:                                exitUsage,
			"lbbench -grid -eps NaN -out " + x:                                     exitUsage,
			"lbbench -grid -scale Inf -out " + x:                                   exitUsage,
			"lbbench -explain torus/diffusion/continuous/spike/s1 -grid -out " + x: exitConflict,
			"lbbench -explain torus/diffusion/continuous/spike/s01":                exitUsage,
			"lbbench -explain torus/firstorder/discrete/spike/s1":                  exitFailedUnits,
			"lbserved -addr 127.0.0.1:-1 -speedup NaNx":                            exitUsage,
			"lbserved -addr 127.0.0.1:-1 -hz NaN":                                  exitUsage,
			"lbserved -addr 127.0.0.1:-1 -hz -5":                                   exitUsage,
			"lbserved -addr 127.0.0.1:-1 -hz 1e-10":                                exitUsage,
		} {
			if _, stderr, code := run(t, strings.Fields(argv)...); code != want {
				t.Errorf("%s: exit %d, want %d (%s)", argv, code, want, stderr)
			}
		}
		if _, err := os.Stat(x); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("a refused run left a journal: %v", err)
		}
	})

	// The recording of a replay flushes on SIGTERM, byte-matches the trace
	// it replayed (all 24 arrivals), and re-runs as a grid scenario
	// independent of -parallel.
	t.Run("lbserved replay", func(t *testing.T) {
		rec := t.TempDir() + "/rec.jsonl"
		p, _, _ := serve(t, "-record", rec)
		if err := p.Process.Signal(syscall.SIGTERM); err != nil || p.exit(t) != 0 {
			t.Fatalf("SIGTERM (%v): exit %d, want 0", err, p.exit(t))
		}
		sameBytes(t, "recording", readFile(rec), readFile(miniTrace))
		grid := strings.Fields("lbbench -grid -topos torus -algos diffusion,randpair -modes continuous,discrete -loads spike -n 64 -seeds 1,2 -rounds 96 -format csv -scenarios static,trace:" + rec)
		sameBytes(t, "trace grid at -parallel 8", runOK(t, append(grid, "-parallel", "8")...), runOK(t, append(grid, "-parallel", "1")...))
	})

	t.Run("lbserved telemetry", func(t *testing.T) {
		_, ingest, debug := serve(t)
		for url, want := range map[string]string{ingest + "/metrics/prom": "\nlbserved_arrivals_total 24\n",
			debug + "/metrics/prom": "\nlbserved_rounds_total ", debug + "/debug/pprof/goroutine?debug=1": "goroutine"} {
			if body := get(t, url); !strings.Contains(body, want) {
				t.Errorf("%s lacks %q:\n%s", url, want, body)
			}
		}
	})

	t.Run("profiles", func(t *testing.T) {
		dir := t.TempDir()
		runOK(t, "lbbench", "-grid", "-topos", "torus", "-algos", "diffusion", "-n", "256", "-cpuprofile", dir+"/cpu", "-memprofile", dir+"/heap")
		for _, prof := range []string{"/cpu", "/heap"} {
			if out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount", "3", dir+prof).CombinedOutput(); err != nil {
				t.Errorf("%s profile: %v\n%s", prof, err, out)
			}
		}
	})
}

const miniTrace = "../../testdata/mini-trace.jsonl" // 24 arrivals

// serve starts lbserved replaying the mini-trace at 100×, waits until
// /metrics counts all its arrivals, and returns the daemon and the base URLs
// its log announces for the ingest and -telemetry listeners.
func serve(t *testing.T, args ...string) (p *proc, ingest, debug string) {
	t.Helper()
	p = start(t, append([]string{"lbserved", "-addr", "127.0.0.1:0", "-telemetry", "127.0.0.1:0",
		"-replay", miniTrace, "-speedup", "100x"}, args...)...)
	urls := map[string]string{}
	p.waitFor(t, "the listen log lines", func() bool {
		for _, m := range regexp.MustCompile(`(listening|telemetry:).* on (http://\S+)`).FindAllStringSubmatch(readFile(p.log), -1) {
			urls[m[1]] = m[2]
		}
		return len(urls) == 2
	})
	ingest, debug = urls["listening"], urls["telemetry:"]
	p.waitFor(t, "all 24 arrivals", func() bool { return strings.Contains(get(t, ingest+"/metrics"), `"arrivals_total":24,`) })
	return p, ingest, debug
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %v", url, resp.Status, err)
	}
	return string(b)
}
