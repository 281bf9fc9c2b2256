// Command linkcheck validates the repository-local links of Markdown
// files: every `[text](target)` whose target is a relative path must
// resolve to an existing file or directory, and every anchor — in-page
// `#x` or cross-file `f.md#x` — to a heading of that Markdown file, by
// the heading's GitHub slug. URL schemes are skipped, so CI stays
// hermetic (no network). It exists so documentation reorganisations and
// renamed headings cannot silently strand README/docs cross-references;
// the CI lint job runs it alongside detlint and doccheck.
//
// Usage:
//
//	linkcheck README.md docs
//
// Arguments are Markdown files or directories to walk for *.md. Exit code
// 1 lists every broken link as file:line: target.
package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"
)

// linkPattern matches inline Markdown links; images share the syntax.
var linkPattern = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// codeSpan matches inline code, which may legitimately contain link syntax
// as literal text and must not be checked.
var codeSpan = regexp.MustCompile("`[^`]*`")

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"."}
	}
	var files []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "linkcheck:", err)
			os.Exit(2)
		}
		if !info.IsDir() {
			files = append(files, a)
			continue
		}
		err = filepath.WalkDir(a, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != a {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "linkcheck:", err)
			os.Exit(2)
		}
	}

	anchors := map[string]map[string]bool{}
	broken := 0
	for _, f := range files {
		bad, err := checkFile(f, anchors)
		if err != nil {
			fmt.Fprintln(os.Stderr, "linkcheck:", err)
			os.Exit(2)
		}
		for _, b := range bad {
			fmt.Println(b)
		}
		broken += len(bad)
	}
	if broken > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d broken link(s)\n", broken)
		os.Exit(1)
	}
}

// checkFile returns the broken relative links of one Markdown file as
// file:line: target. anchors caches each Markdown file's heading slugs.
func checkFile(path string, anchors map[string]map[string]bool) ([]string, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	var broken []string
	for i, text := range lines {
		text = codeSpan.ReplaceAllString(text, "``")
		for _, m := range linkPattern.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if skipTarget(target) {
				continue
			}
			file, anchor, _ := strings.Cut(target, "#")
			resolved := path
			if file != "" {
				resolved = filepath.Join(filepath.Dir(path), file)
				if _, err := os.Stat(resolved); err != nil {
					broken = append(broken, fmt.Sprintf("%s:%d: %s", path, i+1, target))
					continue
				}
			}
			if anchor == "" || !strings.HasSuffix(resolved, ".md") {
				continue
			}
			slugs, ok := anchors[resolved]
			if !ok {
				if slugs, err = headingSlugs(resolved); err != nil {
					return nil, err
				}
				anchors[resolved] = slugs
			}
			if !slugs[anchor] {
				broken = append(broken, fmt.Sprintf("%s:%d: %s", path, i+1, target))
			}
		}
	}
	return broken, nil
}

// readLines returns a Markdown file's lines outside fenced code blocks,
// which hold shell snippets rather than navigation or headings; fenced
// lines read as empty, so line numbers stay the file's.
func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	inFence := false
	for sc.Scan() {
		text := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			inFence = !inFence
			text = ""
		}
		if inFence {
			text = ""
		}
		lines = append(lines, text)
	}
	return lines, sc.Err()
}

// headingLink matches a link or image in heading text, whose slug keeps
// only the link text.
var headingLink = regexp.MustCompile(`!?\[([^\]]*)\]\([^)]*\)`)

// headingSlugs returns the anchors GitHub generates for a Markdown file's
// ATX headings: each heading's slug, a repeated slug numbered -1, -2, ...
// in order.
func headingSlugs(path string) (map[string]bool, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	slugs := map[string]bool{}
	seen := map[string]int{}
	for _, l := range lines {
		l = strings.TrimLeft(l, " ")
		level := len(l) - len(strings.TrimLeft(l, "#"))
		if level < 1 || level > 6 || (len(l) > level && l[level] != ' ') {
			continue
		}
		s := slug(strings.TrimRight(strings.TrimSpace(l[level:]), "#"))
		if n := seen[s]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", s, n)] = true
		} else {
			slugs[s] = true
		}
		seen[s]++
	}
	return slugs, nil
}

// slug is GitHub's anchor for a heading's text: the rendered text (link
// targets, code and emphasis markers dropped) in lower case, with every
// character but letters, digits, marks, '_', '-' and spaces removed and
// each space turned into '-'.
func slug(heading string) string {
	heading = headingLink.ReplaceAllString(strings.TrimSpace(heading), "$1")
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) || unicode.IsMark(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// skipTarget reports whether a link target is out of scope: absolute URLs
// and mail and other schemes.
func skipTarget(t string) bool {
	return strings.Contains(t, "://") || strings.HasPrefix(t, "mailto:")
}
