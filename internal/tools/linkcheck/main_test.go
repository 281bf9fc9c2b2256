package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckFile runs the checker over a small Markdown tree: a link
// passes only when its file exists and its anchor, in-page or cross-file,
// names a heading of that Markdown file by its GitHub slug.
func TestCheckFile(t *testing.T) {
	dir := t.TempDir()
	other := "# Other\n\n## Second `code` part\n\n```\n# not a heading\n```\n"
	if err := os.WriteFile(filepath.Join(dir, "other.md"), []byte(other), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	page := "# Page: the *first* heading\n\n## Repeated\n\n## Repeated\n\n### [Linked](other.md) heading_name\n"
	for _, c := range []struct {
		name, link string
		broken     bool
	}{
		{"in-page", "[x](#page-the-first-heading)", false},
		{"in-page-dead", "[x](#no-such-heading)", true},
		{"repeated-first", "[x](#repeated)", false},
		{"repeated-second", "[x](#repeated-1)", false},
		{"repeated-third", "[x](#repeated-2)", true},
		{"link-in-heading", "[x](#linked-heading_name)", false},
		{"cross-file", "[y](other.md#second-code-part)", false},
		{"cross-file-dead", "[y](other.md#nope)", true},
		{"fenced-heading", "[y](other.md#not-a-heading)", true},
		{"file-only", "[y](other.md)", false},
		{"missing-file", "[y](gone.md)", true},
		{"non-markdown-anchor", "[y](main.go#L10)", false},
		{"url", "[y](https://example.com/#x)", false},
		{"code-span", "`[y](#nope)`", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".md")
			if err := os.WriteFile(path, []byte(page+"\nSee "+c.link+".\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := checkFile(path, map[string]map[string]bool{})
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			if c.broken {
				want = []string{path + ":9: " + linkPattern.FindStringSubmatch(c.link)[1]}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: broken = %q, want %q", c.link, got, want)
			}
		})
	}
}
