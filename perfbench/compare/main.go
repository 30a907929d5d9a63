// Command compare sets two perfbench result sets side by side. Each set
// is a file of JSON lines as perfbench --out appends them (other lines
// are skipped). For every (workload, metric) it prints each side's median
// and quartiles over its runs, the change of the median, and a verdict:
// "unresolved" when the two quartile ranges overlap.
//
//	go -C perfbench run ./compare ../old.jsonl ../new.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// higherIsBetter names the metrics where a larger value is an
// improvement; for every other end-to-end metric smaller is better, and
// per-layer metrics (names with a dot) get no direction.
var higherIsBetter = map[string]bool{"qps": true, "success_ratio": true}

// minRuns is the fewest runs per side that get a verdict; quartiles of
// fewer runs say nothing about the spread.
const minRuns = 5

type record struct {
	Workload string `json:"workload"`
	Correct  bool   `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// set maps workload, then metric, to the values of every run.
type set struct {
	values    map[string]map[string][]float64
	units     map[string]string
	runs      map[string]int
	incorrect map[string]int
}

func load(path string) (*set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &set{values: map[string]map[string][]float64{}, units: map[string]string{}, runs: map[string]int{}, incorrect: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			Record *record `json:"perfbench_record"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Record == nil {
			continue
		}
		r := line.Record
		s.runs[r.Workload]++
		if !r.Correct {
			s.incorrect[r.Workload]++
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
			s.units[name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.runs) == 0 {
		return nil, fmt.Errorf("%s: no perfbench records", path)
	}
	return s, nil
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles default), so the
// figures match a spread computed that way.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare OLD.jsonl NEW.jsonl")
		os.Exit(2)
	}
	old, err := load(os.Args[1])
	if err == nil {
		var cur *set
		if cur, err = load(os.Args[2]); err == nil {
			report(old, cur)
			return
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}

func report(old, cur *set) {
	var workloads []string
	for w := range old.values {
		if cur.values[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		fmt.Println("no workload appears in both sets")
		return
	}
	fmt.Printf("%-18s %-36s %-30s %-30s %9s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "delta", "verdict")
	for _, w := range workloads {
		fmt.Printf("%-18s runs: old %d, new %d\n", w, old.runs[w], cur.runs[w])
		if old.incorrect[w]+cur.incorrect[w] > 0 {
			fmt.Printf("%-18s INCORRECT RUNS: old %d of %d, new %d of %d\n", w, old.incorrect[w], old.runs[w], cur.incorrect[w], cur.runs[w])
		}
		var names []string
		for name := range old.values[w] {
			if cur.values[w][name] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			o1, o2, o3 := quartiles(old.values[w][name])
			n1, n2, n3 := quartiles(cur.values[w][name])
			delta := "n/a"
			if o2 != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(n2-o2)/math.Abs(o2))
			}
			verdict := "unresolved"
			switch {
			case len(old.values[w][name]) < minRuns || len(cur.values[w][name]) < minRuns:
				verdict = "too few runs"
			case n1 > o3 || n3 < o1:
				verdict = direction(name, n2 > o2)
			case o1 == o3 && n1 == n3 && o2 == n2:
				verdict = "same"
			}
			fmt.Printf("%-18s %-36s %-30s %-30s %9s  %s\n", w, name+" ("+cur.units[name]+")",
				fmt.Sprintf("%.4g [%.4g, %.4g]", o2, o1, o3), fmt.Sprintf("%.4g [%.4g, %.4g]", n2, n1, n3), delta, verdict)
		}
	}
}

func direction(name string, up bool) string {
	if strings.Contains(name, ".") {
		if up {
			return "higher"
		}
		return "lower"
	}
	if up == higherIsBetter[name] {
		return "better"
	}
	return "worse"
}
