package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"congestds/internal/graph"
)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a shutdown function that waits for run to exit and returns its
// exit code.
func startDaemon(t *testing.T, args ...string) (baseURL string, shutdown func() int) {
	t.Helper()
	addrCh := make(chan string, 1)
	var srv *http.Server
	onListen = func(addr string, s *http.Server) {
		srv = s
		addrCh <- addr
	}
	t.Cleanup(func() { onListen = nil })

	exitCh := make(chan int, 1)
	var out, errb bytes.Buffer
	go func() { exitCh <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &out, &errb) }()

	select {
	case addr := <-addrCh:
		baseURL = "http://" + addr
	case code := <-exitCh:
		t.Fatalf("daemon exited before listening: code %d, stderr %s", code, errb.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}
	if !strings.Contains(out.String(), "serving on") {
		t.Errorf("startup banner missing: %q", out.String())
	}
	return baseURL, func() int {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		select {
		case code := <-exitCh:
			return code
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after shutdown")
			return -1
		}
	}
}

func writeGraph(t *testing.T, dir, name string) string {
	t.Helper()
	g := graph.GNPConnected(20, 0.2, 3)
	path := filepath.Join(dir, name)
	if strings.HasSuffix(name, ".csrg") {
		if err := g.WriteCSRGFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDaemonServesAndShutsDownCleanly(t *testing.T) {
	dir := t.TempDir()
	path := writeGraph(t, dir, "g.csrg")
	base, shutdown := startDaemon(t, "-graph", "g="+path)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("/healthz: status %d body %q", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/solve?graph=g&algo=arbmds")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve: status %d body %s", resp.StatusCode, body)
	}
	var view struct {
		Passed  bool `json:"passed"`
		SetSize int  `json:"set_size"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("/solve body not JSON: %v\n%s", err, body)
	}
	if !view.Passed || view.SetSize == 0 {
		t.Errorf("implausible solve body: %s", body)
	}

	if code := shutdown(); code != exitOK {
		t.Errorf("clean shutdown exit code = %d, want %d", code, exitOK)
	}
}

func TestDaemonDirMode(t *testing.T) {
	dir := t.TempDir()
	writeGraph(t, dir, "sub.txt")
	base, shutdown := startDaemon(t, "-dir", dir)
	defer shutdown()

	resp, err := http.Get(base + "/solve?graph=sub.txt&algo=arbmds")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dir-mode /solve: status %d body %s", resp.StatusCode, body)
	}
}

func TestDaemonUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no graphs", nil},
		{"bad graph spec", []string{"-graph", "nopath"}},
		{"duplicate graph", []string{"-graph", "g=a.txt", "-graph", "g=b.txt"}},
		{"bad engine", []string{"-graph", "g=a.txt", "-sim", "stepped"}},
		{"negative budget", []string{"-graph", "g=a.txt", "-graph-budget", "-1"}},
		{"stray args", []string{"-graph", "g=a.txt", "stray"}},
		{"bad flag", []string{"-nope"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != exitUsage {
				t.Errorf("exit code = %d, want %d (stderr %q)", code, exitUsage, errb.String())
			}
		})
	}
}

func TestDaemonListenFailure(t *testing.T) {
	dir := t.TempDir()
	path := writeGraph(t, dir, "g.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"-addr", "256.256.256.256:1", "-graph", "g=" + path}, &out, &errb); code != exitRun {
		t.Errorf("exit code = %d, want %d (stderr %q)", code, exitRun, errb.String())
	}
}
