package sparsefusion

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakeRaceNamesExist: a -run pattern that names a missing test matches
// nothing, silently. Every name in each -run pattern of the Makefile's race
// target must prefix some func Test... in the packages that line names.
func TestMakeRaceNamesExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var recipe []string
	in := false
	for _, line := range strings.Split(string(mk), "\n") {
		switch {
		case strings.HasPrefix(line, "race:"):
			in = true
		case in && strings.HasPrefix(line, "\t"):
			recipe = append(recipe, line)
		case in:
			in = false
		}
	}
	runFlag := regexp.MustCompile(`-run '([^']*)'((?:\s+\./\S*|\s+\.)+)\s*$`)
	testFunc := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	patterns := 0
	for _, line := range recipe {
		m := runFlag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		patterns++
		var tests []string
		for _, pkg := range strings.Fields(m[2]) {
			files, err := filepath.Glob(filepath.Join(strings.TrimSuffix(pkg, "/..."), "*_test.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("race names package %s, which has no test files", pkg)
			}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, fm := range testFunc.FindAllStringSubmatch(string(src), -1) {
					tests = append(tests, fm[1])
				}
			}
		}
		for _, name := range strings.Split(m[1], "|") {
			name = strings.Trim(name, "^$")
			found := false
			for _, tn := range tests {
				found = found || strings.HasPrefix(tn, name)
			}
			if !found {
				t.Errorf("make race: -run names %s, which prefixes no test in%s", name, m[2])
			}
		}
	}
	if patterns == 0 {
		t.Fatal("found no -run pattern in the Makefile's race target")
	}
}
