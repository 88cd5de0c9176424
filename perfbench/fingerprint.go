package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the machine and the code a run measured. Two
// runs' timings are comparable only when their machine fields match.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	// Source is a digest of the repository's Go sources, which
	// identifies the code where no git metadata is available.
	Source string `json:"source_sha256"`
}

func machineFingerprint(root string) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

// machine is the part of a fingerprint that decides whether timings
// compare.
func (f fingerprint) machine() string {
	return fmt.Sprintf("%s | nproc %d | GOMAXPROCS %d | %s", f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD from the repository's .git directory, or returns
// "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root (paths and
// contents, in path order), skipping hidden directories.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go")) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// modulePath returns the module line of a go.mod file.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// savedRun is a run's saved standard output: its fingerprint line and
// its final report line.
type savedRun struct {
	fp  fingerprint
	rep report
}

func readSavedRun(path string) (savedRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return savedRun{}, err
	}
	var r savedRun
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "fingerprint "); ok {
			if err := json.Unmarshal([]byte(rest), &r.fp); err != nil {
				return r, fmt.Errorf("%s: fingerprint: %w", path, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.rep); err != nil {
		return r, fmt.Errorf("%s: last line: %w", path, err)
	}
	return r, nil
}

// compare prints the metrics of two saved runs side by side. When the
// machines differ the table is labelled a cross-machine comparison, in
// which timings say nothing about the code.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD NEW (saved standard output of two runs)")
	}
	old, err := readSavedRun(args[0])
	if err != nil {
		return err
	}
	cur, err := readSavedRun(args[1])
	if err != nil {
		return err
	}
	if old.fp.machine() == cur.fp.machine() {
		fmt.Fprintf(w, "same machine: %s\n", cur.fp.machine())
	} else {
		fmt.Fprintf(w, "CROSS-MACHINE COMPARISON: timings are not comparable\n  old: %s\n  new: %s\n", old.fp.machine(), cur.fp.machine())
	}
	fmt.Fprintf(w, "code: %s (%.12s) -> %s (%.12s)\n", old.fp.Commit, old.fp.Source, cur.fp.Commit, cur.fp.Source)
	for _, name := range sortedKeys(cur.rep.Metrics) {
		m := cur.rep.Metrics[name]
		if o, ok := old.rep.Metrics[name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g -> %14.6g %-6s %+8.2f%%\n", name, o.Value, m.Value, m.Unit, 100*ratio(m.Value-o.Value, o.Value))
		}
	}
	return nil
}
