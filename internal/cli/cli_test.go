package cli

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mtier/internal/core"
	"mtier/internal/obs"
)

// helperEnv selects a helper-process mode: the test binary re-executes
// itself with it set and runs helperMain instead of the tests.
const helperEnv = "MTIER_CLI_HELPER"

func TestMain(m *testing.M) {
	if mode := os.Getenv(helperEnv); mode != "" {
		helperMain(mode)
	}
	os.Exit(m.Run())
}

// helperMain is a minimal command on the shared lifecycle. "fatal" fails
// after the profiles started; "signal" waits for SIGINT and exits with
// the canceled context's error.
func helperMain(mode string) {
	fs := flag.NewFlagSet("helper", flag.ExitOnError)
	p := New("helper", fs)
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	ctx := p.Start(0)
	switch mode {
	case "fatal":
		p.Check(errors.New("deliberate failure"))
	case "signal":
		fmt.Println("ready")
		<-ctx.Done()
		p.Exit(fmt.Errorf("waiting for work: %w", ctx.Err()))
	}
	p.Exit(nil)
}

func helperCmd(t *testing.T, mode string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), helperEnv+"="+mode)
	return cmd
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	var ee *exec.ExitError
	if err == nil {
		return 0
	}
	if !errors.As(err, &ee) {
		t.Fatalf("helper did not run: %v", err)
	}
	return ee.ExitCode()
}

// checkProfile asserts path holds a pprof profile: gzip-compressed
// protobuf whose top-level fields all decode and include at least one
// sample_type (field 1).
func checkProfile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatalf("%s is empty: the profile was not flushed before exit", path)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	msg, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	sampleTypes := 0
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			t.Fatalf("%s: bad field key", path)
		}
		msg = msg[n:]
		switch key & 7 {
		case 0:
			if _, n = binary.Uvarint(msg); n <= 0 {
				t.Fatalf("%s: bad varint", path)
			}
		case 1:
			n = 8
		case 2:
			l, m := binary.Uvarint(msg)
			if m <= 0 || l > uint64(len(msg)-m) {
				t.Fatalf("%s: bad length-delimited field", path)
			}
			n = m + int(l)
		case 5:
			n = 4
		default:
			t.Fatalf("%s: wire type %d", path, key&7)
		}
		if n > len(msg) {
			t.Fatalf("%s: truncated field", path)
		}
		msg = msg[n:]
		if key>>3 == 1 {
			sampleTypes++
		}
	}
	if sampleTypes == 0 {
		t.Fatalf("%s: no sample_type field", path)
	}
}

func TestFatalExitFlushesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	out, err := helperCmd(t, "fatal", "-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	if code := exitCode(t, err); code != 1 {
		t.Fatalf("exit status %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(string(out), "helper: deliberate failure") {
		t.Fatalf("error not reported; output:\n%s", out)
	}
	checkProfile(t, cpu)
	checkProfile(t, mem)
}

func TestCanceledExitsWithSignalCode(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGINT delivery")
	}
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	cmd := helperCmd(t, "signal", "-cpuprofile", cpu)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(stdout).ReadString('\n'); err != nil || line != "ready\n" {
		cmd.Process.Kill()
		t.Fatalf("helper not ready: %q, %v", line, err)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := exitCode(t, cmd.Wait()); code != core.SignalExitCode {
		t.Fatalf("exit status %d, want %d; stderr:\n%s", code, core.SignalExitCode, stderr.String())
	}
	if !strings.Contains(stderr.String(), "helper: interrupted: waiting for work: context canceled") {
		t.Fatalf("cancellation not reported; stderr:\n%s", stderr.String())
	}
	checkProfile(t, cpu)
}

func TestReportMapsErrorsToStatus(t *testing.T) {
	p := &Process{Prog: "test", timeout: time.Second}
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("boom"), 1},
		{Status(0), 0},
		{Status(3), 3},
		{fmt.Errorf("cell: %w", context.Canceled), core.SignalExitCode},
		{fmt.Errorf("cell: %w", context.DeadlineExceeded), 1},
	} {
		if got := p.report(tc.err); got != tc.want {
			t.Errorf("report(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// failWriter fails every write and close.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
func (failWriter) Close() error              { return errors.New("close failed") }

func TestSinkWriteErrorIsSticky(t *testing.T) {
	s := &Sink{out: failWriter{}, w: bufio.NewWriterSize(failWriter{}, 16)}
	rec := &obs.RunRecord{Schema: obs.RunRecordSchema, Result: 1.5}
	s.Add("a", rec)
	s.Add("b", rec)
	err := s.Close()
	if err == nil || !strings.Contains(err.Error(), "writing records: disk full") {
		t.Fatalf("Close = %v, want the first write error", err)
	}
}

func TestSinkFailsOnUnencodableRecord(t *testing.T) {
	s, err := openSink("", true)
	if err != nil {
		t.Fatal(err)
	}
	s.Add("good", &obs.RunRecord{Result: 1.0})
	s.Add("bad", &obs.RunRecord{Result: math.Inf(1)})
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "fingerprinting record bad") {
		t.Fatalf("Close = %v, want the fingerprint error: a cell must not drop out of the digest silently", err)
	}
}

func TestSinkRecordsAndDigestOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	recs := map[string]*obs.RunRecord{
		"a": {Seed: 1, Phases: obs.PhaseTimings{BuildSeconds: 9}},
		"b": {Seed: 2},
		"c": {Seed: 3},
	}
	digest := func(order ...string) string {
		s, err := openSink(path, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range order {
			s.Add(k, recs[k])
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return s.Fingerprint()
	}
	got := digest("c", "a", "b")
	if again := digest("b", "c", "a"); again != got {
		t.Fatalf("digest depends on completion order: %s vs %s", got, again)
	}
	var fps [][]byte
	for _, k := range []string{"a", "b", "c"} {
		fp, err := recs[k].Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	if want := obs.Digest(fps...); got != want {
		t.Fatalf("digest %s, want sorted-key digest %s", got, want)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != 3 {
		t.Fatalf("records file has %d lines, want 3", n)
	}
}

func TestSinkConcurrentAdds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	s, err := openSink(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s.Add(fmt.Sprintf("%d/%d", g, i), &obs.RunRecord{Seed: int64(g*100 + i)})
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != 200 || len(s.fps) != 200 {
		t.Fatalf("%d record lines and %d fingerprints, want 200 each", n, len(s.fps))
	}
}
