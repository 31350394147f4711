package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// fingerprint identifies the host, the code and the run, so that results
// are compared like for like.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// Source is a digest of every Go source and module file under the
	// working directory: it names the code when no VCS metadata exists.
	Source string `json:"source_sha256"`
	// StoreFS is the filesystem type under the epoch stores.
	StoreFS string `json:"store_fs"`
	// Flush counts the fsync call sites (.Sync()) in the non-test sources
	// of the packages that write epoch stores: the store's flush policy as
	// the code states it.
	Flush map[string]int `json:"store_fsync_sites"`
}

// storeWriters are the packages whose files land in an epoch store.
var storeWriters = []string{"internal/epoch", "internal/shard", "internal/index", "internal/privacy", "internal/replica"}

func fingerprintOf(r *run) fingerprint {
	fp := fingerprint{
		Workload: r.spec.name, Seed: r.seed, Seconds: int(r.seconds.Seconds()), Traced: r.traced,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", StoreFS: fsType(filepath.Dir(r.dir)),
		Flush: map[string]int{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	fp.Source = sourceDigest(".", fp.Flush)
	return fp
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x01021997: "9p", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// sourceDigest hashes the path and content of every .go, go.mod and go.sum
// file under root (skipping hidden directories), and counts the fsync call
// sites of the store-writing packages into flush.
func sourceDigest(root string, flush map[string]int) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if e.IsDir() {
			if path != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write(raw)
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, pkg := range storeWriters {
			if dir == pkg && !strings.HasSuffix(name, "_test.go") {
				flush[pkg] += bytes.Count(raw, []byte(".Sync()"))
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
