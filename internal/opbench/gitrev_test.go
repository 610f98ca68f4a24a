package opbench

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGitRevFallback(t *testing.T) {
	const hash = "4af305cb698cfde02b1d0d603f616a80e08ec2ae"
	write := func(dir, name, body string) {
		t.Helper()
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	repo := func(files map[string]string) string {
		root := t.TempDir()
		for name, body := range files {
			write(root, ".git/"+name, body)
		}
		return root
	}
	for _, c := range []struct {
		name  string
		files map[string]string
		sub   string // start the search in this subdirectory of the repo
		want  string
		ok    bool
	}{
		{"detached", map[string]string{"HEAD": hash + "\n"}, "", hash, true},
		{"loose ref", map[string]string{"HEAD": "ref: refs/heads/main\n", "refs/heads/main": hash + "\n"}, "", hash, true},
		{"packed ref", map[string]string{
			"HEAD":        "ref: refs/heads/main\n",
			"packed-refs": "# pack-refs with: peeled fully-peeled sorted\n" + hash + " refs/heads/main\n",
		}, "", hash, true},
		{"from a subdirectory", map[string]string{"HEAD": hash + "\n"}, "internal/opbench", hash, true},
		{"dangling ref", map[string]string{"HEAD": "ref: refs/heads/gone\n"}, "", "", false},
		{"empty HEAD", map[string]string{"HEAD": "\n"}, "", "", false},
		{"no HEAD", map[string]string{"config": ""}, "", "", false},
	} {
		root := repo(c.files)
		got, ok := headRev(filepath.Join(root, ".git"))
		if got != c.want || ok != c.ok {
			t.Errorf("%s: headRev = %q, %v; want %q, %v", c.name, got, ok, c.want, c.ok)
		}
		if !c.ok {
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(c.sub))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if got := gitRevFrom(dir); got != c.want {
			t.Errorf("%s: gitRevFrom = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCollectEnvGitRev: under `go test` the binary carries no VCS stamp, so
// inside a git checkout the revision comes from .git/HEAD, not "unknown".
func TestCollectEnvGitRev(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	want := gitRevFrom(wd)
	if want == "unknown" {
		t.Skip("not inside a git checkout")
	}
	if got := CollectEnv().GitRev; got != want {
		t.Fatalf("CollectEnv().GitRev = %q, want %q", got, want)
	}
}
