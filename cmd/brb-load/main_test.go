package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// A 300ms open-loop run over 60 keys, 30 % writes: long enough for a
// fault and its undoing to land under traffic, short enough to run one
// per verb. Timelines are filled in per test.
const baseSpec = `{
  "name": "t",
  "seed": 7,
  "keys": 60,
  "clients": [
    {"name": "load", "workers": 2, "ops": 600, "arrival": {"process": "fixed", "rate": 2000},
     "mix": {"write": 0.3}, "fanout": {"mean": 4}}
  ],
  "faults": [%s]
}`

// writeSpec writes baseSpec with the given faults list (the items of a
// JSON array) and returns its path.
func writeSpec(t *testing.T, faults string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(fmt.Sprintf(baseSpec, faults)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// brbLoad runs the command in-process.
func brbLoad(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func mustContain(t *testing.T, what, text string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !regexp.MustCompile(want).MatchString(text) {
			t.Errorf("%s lacks %q:\n%s", what, want, text)
		}
	}
}

func TestFlagBudget(t *testing.T) {
	code, _, usage := brbLoad("-h")
	if n := len(regexp.MustCompile(`(?m)^  -`).FindAllString(usage, -1)); code != 0 || n == 0 || n > 14 {
		t.Fatalf("brb-load -h: exit %d listing %d flags, want exit 0 and 1..14:\n%s", code, n, usage)
	}
	// What a spec says, no flag may say again — not under its old name,
	// and so not at all. -controller went with the store's credits path;
	// -record and -replay with traces, since a spec and its seed already
	// fix the ops; -allocstats with the second allocation instrument;
	// -hedge-delay and -hedge-quantile, which only ever restated
	// HedgePolicy's defaults.
	for _, gone := range []string{"keys", "tasks", "clients", "fanout", "burst-prob", "write-frac", "zipf", "seed",
		"kill-replica", "kill-after", "restart-after", "crash-replica", "crash-after", "recover-after",
		"slow-replica", "slow-latency", "add-shard-after", "remove-shard-after", "controller",
		"record", "replay", "allocstats", "hedge-delay", "hedge-quantile"} {
		code, _, stderr := brbLoad("-spawn", "-"+gone, "1")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -"+gone) {
			t.Errorf("-%s: exit %d, stderr %q; want the flag gone", gone, code, stderr)
		}
	}
}

// Every unrunnable command line exits 2 with one line, before anything
// is dialed: the cases without -spawn name servers nobody listens on,
// which a dial would report as a failed run (exit 1) instead.
func TestRejectedBeforeDialing(t *testing.T) {
	cluster := []string{"-spawn", "-shards", "2", "-replication", "2"}
	cases := []struct {
		name, faults string
		args         []string
		want         string
	}{
		{"unknown verb", `{"at": "1s", "do": "melt", "target": "0/0"}`, cluster, "unknown verb"},
		{"restart without crash", `{"at": "1s", "do": "restart", "target": "0/1"}`, cluster, "no crash of 0/1 is in force"},
		{"out of order", `{"at": "2s", "do": "sever", "target": "0/1"}, {"at": "1s", "do": "restore", "target": "0/1"}`, cluster, "time order"},
		{"shard out of range", `{"at": "1s", "do": "sever", "target": "2/0"}`, cluster, "no such replica"},
		{"replica out of range", `{"at": "1s", "do": "slow", "target": "1/2", "arg": "1ms"}`, cluster, "no such replica"},
		{"removed shard", `{"at": "1s", "do": "remove-shard"}, {"at": "2s", "do": "sever", "target": "1/0"}`, cluster, "no such replica"},
		{"last shard", `{"at": "1s", "do": "remove-shard"}`, []string{"-spawn"}, "cannot remove the last shard"},
		{"crash without spawn", `{"at": "1s", "do": "crash", "target": "0/1"}`, nil, "needs -spawn"},
		{"slow without spawn", `{"at": "0s", "do": "slow", "target": "0/1", "arg": "1ms"}`, nil, "needs -spawn"},
		{"crash unreplicated", `{"at": "1s", "do": "crash", "target": "0/0"}`, []string{"-spawn", "-shards", "2", "-replication", "1"}, "needs -replication >= 2"},
		{"address count", "", []string{"-shards", "2"}, "3 addresses for 2 shards × 3 replicas"},
		{"bad hedge", "", []string{"-hedge", "sometimes"}, "want off or adaptive"},
		{"no shards", "", []string{"-shards", "0"}, "-shards must be at least 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := brbLoad(append([]string{"-spec", writeSpec(t, tc.faults)}, tc.args...)...)
			if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.want) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 and one line containing %q", code, stdout, stderr, tc.want)
			}
		})
	}
}

// One end-to-end run per verb pair, each through run() to `verify: OK`.
func TestTimelineVerbs(t *testing.T) {
	cluster := []string{"-spawn", "-shards", "2", "-replication", "2", "-probe-interval", "20ms"}
	t.Run("sever restore", func(t *testing.T) {
		code, stdout, stderr := brbLoad(append(cluster, "-spec", writeSpec(t,
			`{"at": "50ms", "do": "sever", "target": "1/0"}, {"at": "150ms", "do": "restore", "target": "1/0"}`))...)
		if code != 0 {
			t.Errorf("exit %d", code)
		}
		mustContain(t, "stdout", stdout, `verify: OK — epoch 1, 60 keys`, `ops=600 .* err=0`)
		mustContain(t, "stderr", stderr, `fault: \+\d+ms sever 1/0`, `fault: \+\d+ms restore 1/0`)
	})
	t.Run("crash restart", func(t *testing.T) {
		code, stdout, stderr := brbLoad(append(cluster, "-spec", writeSpec(t,
			`{"at": "50ms", "do": "crash", "target": "0/1"}, {"at": "150ms", "do": "restart", "target": "0/1"}`))...)
		if code != 0 {
			t.Errorf("exit %d", code)
		}
		mustContain(t, "stdout", stdout, `verify: OK — epoch 1, 60 keys`, `ops=600 .* err=0`)
		mustContain(t, "stderr", stderr, `fault: \+\d+ms crash 0/1`, `fault: \+\d+ms restart 0/1 .* [1-9]\d* WAL records`)
		// The tally spans the crashed server's incarnations: every key a
		// client read was served by someone.
		served := regexp.MustCompile(`served_keys=(\d+)`).FindStringSubmatch(stdout)
		read := regexp.MustCompile(`ops=600 keys=(\d+)`).FindStringSubmatch(stdout)
		if served == nil || read == nil {
			t.Fatalf("no sched:/class line:\n%s", stdout)
		}
		if s, r := atoi(served[1]), atoi(read[1]); s < r {
			t.Errorf("served_keys=%d under-reports the %d keys read", s, r)
		}
		assertWALTreeGone(t, stderr)
	})
	t.Run("slow", func(t *testing.T) {
		code, stdout, stderr := brbLoad(append(cluster, "-hedge", "adaptive", "-spec", writeSpec(t,
			`{"at": "0s", "do": "slow", "target": "0/0", "arg": "10ms"}`))...)
		if code != 0 {
			t.Errorf("exit %d", code)
		}
		mustContain(t, "stdout", stdout, `verify: OK`, `hedges: fired=[1-9]\d* won=[1-9]`)
		mustContain(t, "stderr", stderr, `fault: \+0s slow 0/0 — \+10ms per request`)
	})
	t.Run("add-shard", func(t *testing.T) {
		// In a durable run: the shard added live must come up through the
		// same constructor as the initial servers, WAL directory and all.
		dataDir := t.TempDir()
		code, stdout, stderr := brbLoad(append(cluster, "-data-dir", dataDir, "-fsync", "never", "-spec", writeSpec(t,
			`{"at": "50ms", "do": "add-shard"}`))...)
		if code != 0 {
			t.Errorf("exit %d", code)
		}
		mustContain(t, "stdout", stdout, `verify: OK — epoch 2, 60 keys`, `ops=600 .* err=0`)
		mustContain(t, "stderr", stderr, `fault: \+\d+ms add-shard — shard 2`)
		for _, dir := range []string{"server-0", "server-3", "server-4", "server-5"} {
			if _, err := os.Stat(filepath.Join(dataDir, dir)); err != nil {
				t.Errorf("no WAL directory for %s: %v", dir, err)
			}
		}
	})
	t.Run("remove-shard", func(t *testing.T) {
		code, stdout, stderr := brbLoad("-spawn", "-shards", "3", "-replication", "2", "-spec", writeSpec(t,
			`{"at": "50ms", "do": "remove-shard"}`))
		if code != 0 {
			t.Errorf("exit %d", code)
		}
		mustContain(t, "stdout", stdout, `verify: OK — epoch 2, 60 keys`, `ops=600 .* err=0`)
		mustContain(t, "stderr", stderr, `fault: \+\d+ms remove-shard — shard 2 drained`)
	})
}

// The client counts brb-load adds up over every client it dialed agree
// with what loadgen.Report counts per task on its own: every hedge fired
// belongs to a task's read, and every key a task read was looked up in
// its client's cache once.
func TestReportCountsAddUp(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{
  "name": "counts",
  "seed": 3,
  "keys": 60,
  "classes": [{"name": "fg", "priority": 0}, {"name": "bg", "priority": 1}],
  "clients": [
    {"name": "fg", "class": "fg", "workers": 2, "ops": 400, "arrival": {"process": "fixed", "rate": 2000},
     "keys": {"dist": "zipf", "s": 1.1}, "mix": {"write": 0.1}, "fanout": {"mean": 4}},
    {"name": "bg", "class": "bg", "workers": 1, "ops": 200, "arrival": {"process": "fixed", "rate": 1000},
     "fanout": {"mean": 8}}
  ],
  "faults": [{"at": "0s", "do": "slow", "target": "0/0", "arg": "5ms"}]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := brbLoad("-spawn", "-shards", "2", "-replication", "2", "-hedge", "adaptive", "-cache", "16", "-spec", spec)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout)
	}
	classes := regexp.MustCompile(`(?m)^class .* keys=(\d+) .* err=0 expired=0 cancelled=0 hedges=(\d+)$`).FindAllStringSubmatch(stdout, -1)
	hedges := regexp.MustCompile(`hedges: fired=(\d+) `).FindStringSubmatch(stdout)
	cache := regexp.MustCompile(`cache: hits=(\d+) misses=(\d+) `).FindStringSubmatch(stdout)
	if len(classes) != 2 || hedges == nil || cache == nil {
		t.Fatalf("want two error-free class lines, a hedges: line and a cache: line:\n%s", stdout)
	}
	keys, hedged := 0, 0
	for _, c := range classes {
		keys += atoi(c[1])
		hedged += atoi(c[2])
	}
	if fired := atoi(hedges[1]); fired == 0 || fired != hedged {
		t.Errorf("hedges: fired=%d, want the classes' hedges= total %d, non-zero", fired, hedged)
	}
	if hits, misses := atoi(cache[1]), atoi(cache[2]); hits == 0 || hits+misses != keys {
		t.Errorf("cache: hits=%d misses=%d, want hits > 0 and hits+misses = the classes' keys= total %d", hits, misses, keys)
	}
}

func atoi(s string) int { n, _ := strconv.Atoi(s); return n }

// assertWALTreeGone checks that the temp WAL tree a durable run logged
// was removed when the run returned.
func assertWALTreeGone(t *testing.T, stderr string) {
	t.Helper()
	m := regexp.MustCompile(`WAL \+ snapshots under (\S+)`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("run did not log its WAL root:\n%s", stderr)
	}
	if _, err := os.Stat(m[1]); !os.IsNotExist(err) {
		t.Errorf("temp WAL tree %s outlived the run (stat: %v)", m[1], err)
	}
}

// A run that fails still returns through main: exit 1, and its cleanup
// ran. The crashed replica is never restarted, so verify cannot scan it.
func TestFailedRunCleansUp(t *testing.T) {
	code, stdout, stderr := brbLoad("-spawn", "-shards", "2", "-replication", "2", "-spec", writeSpec(t,
		`{"at": "50ms", "do": "crash", "target": "0/1"}`))
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	mustContain(t, "stdout", stdout, `verify: FAILED — scan of shard 0 replica 1`)
	mustContain(t, "stderr", stderr, `brb-load: verify failed`)
	assertWALTreeGone(t, stderr)
}

// runHarness drives a run's steps up to (not including) verify, so a
// test can tamper with the servers in between.
func runHarness(t *testing.T, out io.Writer, args ...string) *harness {
	t.Helper()
	cfg, err := configure(args, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(context.Background(), cfg, out, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.close)
	if err := h.load(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.measure(); err != nil {
		t.Fatal(err)
	}
	return h
}

// replicasOf returns the in-process servers of key's owner shard.
func replicasOf(h *harness, key string) []*node {
	var out []*node
	for r := 0; r < h.topo.Replicas(); r++ {
		out = append(out, h.nodes[fmt.Sprintf("%d/%d", h.topo.ShardOfKey(key), r)])
	}
	return out
}

// The oracle can fail, both ways.
func TestVerifyCatchesViolations(t *testing.T) {
	args := []string{"-spawn", "-shards", "2", "-replication", "2", "-spec", writeSpec(t, "")}
	t.Run("divergence", func(t *testing.T) {
		var out bytes.Buffer
		h := runHarness(t, &out, args...)
		if err := h.verify(); err != nil {
			t.Fatalf("untampered run: %v\n%s", err, out.String())
		}
		// A version one replica holds and its sibling never saw.
		replicasOf(h, "key:3")[1].srv.Store().SetVersion("key:3", []byte("rogue"), 1<<62)
		out.Reset()
		if err := h.verify(); err != errVerify {
			t.Errorf("verify = %v, want errVerify", err)
		}
		mustContain(t, "stdout", out.String(), `verify: FAILED — 1 divergences, 0 acked-write losses`)
	})
	t.Run("acked loss", func(t *testing.T) {
		var out bytes.Buffer
		h := runHarness(t, &out, args...)
		// Every replica forgets a key the load phase saw acknowledged:
		// they agree with each other, and are all wrong.
		for _, n := range replicasOf(h, "key:5") {
			n.srv.Store().Delete("key:5")
		}
		if err := h.verify(); err != errVerify {
			t.Errorf("verify = %v, want errVerify", err)
		}
		mustContain(t, "stdout", out.String(), `verify: FAILED — 0 divergences, 2 acked-write losses`)
	})
}

func TestPrintSpecIsTheDefaultRun(t *testing.T) {
	code, stdout, _ := brbLoad("-print-spec")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	mustContain(t, "stdout", stdout, `(?m)^  "name": "default",$`, `(?m)^  "keys": 1000,$`, `(?m)^      "ops": 5000,$`, `(?m)^        "mean": 8\.6,$`)
	// What it prints is a spec file: feeding it back changes nothing.
	path := filepath.Join(t.TempDir(), "default.json")
	if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, again, _ := brbLoad("-spec", path, "-print-spec"); again != stdout {
		t.Errorf("-print-spec is not a fixed point:\n%s", again)
	}
}

// A checked-in spec is exactly what runs: -print-spec of it, every
// default filled in, is the file byte for byte.
func TestCheckedInSpecsArePrinted(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checked-in specs (%v)", err)
	}
	for _, path := range paths {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if code, stdout, stderr := brbLoad("-spec", path, "-print-spec"); code != 0 || stdout != string(want) {
			t.Errorf("%s: exit %d, -print-spec differs from the file:\n%s%s", path, code, stdout, stderr)
		}
	}
}
