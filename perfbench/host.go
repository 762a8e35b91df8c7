package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostFacts are recorded with every result so runs on different hosts
// or commits are never compared by accident.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Storage    string `json:"storage_backend"`
	Filesystem string `json:"filesystem"`
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
}

// collectHost records the host and build facts for workload w, whose
// storage lives under dir.
func collectHost(w workload, dir string) hostFacts {
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Storage:    w.storage,
		Filesystem: filesystemOf(dir),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a checkout without .git has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the program sources under root (go.mod and every
// non-test .go file of internal/), so runs of a checkout without VCS
// metadata still identify the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			files = append(files, p)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
