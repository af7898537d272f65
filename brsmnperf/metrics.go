package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one read of the daemon's Prometheus exposition: series key
// (name plus label set) to value.
type scrape map[string]float64

func scrapeMetrics(base string) (scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	s := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return s, nil
}

// sum adds every series named name whose labels contain all of want
// (each a rendered pair such as `op="hit"`).
func (s scrape) sum(name string, want ...string) float64 {
	total := 0.0
	for k, v := range s {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after minus before, series by series.
func delta(before, after scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
