package main

import (
	"fmt"
	"net/http"
	"strings"

	"indep/internal/obs"
)

// scrape is one /metrics snapshot flattened to "name{k=v,...}" → value,
// labels in exposition order.
type scrape map[string]float64

func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + strings.Join(labels, ",") + "}"
}

func fetchScrape(c *http.Client, base string) (scrape, error) {
	r := do(c, "GET", base+"/metrics", nil, nil)
	if r.err != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", base, fmtErr(r))
	}
	fams, err := obs.ParseExposition(r.body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	out := make(scrape)
	for _, f := range fams {
		for _, s := range f.Samples {
			var ls []string
			for _, l := range s.Labels {
				if l.Name != "le" {
					ls = append(ls, l.Name+"="+l.Value)
				}
			}
			if s.Label("le") != "" {
				continue // bucket lines: only _sum and _count are used
			}
			out[seriesKey(s.Name, ls...)] = s.Value
		}
	}
	return out, nil
}

// delta returns after[key] - before[key] (absent series count as 0).
func delta(before, after scrape, key string) float64 { return after[key] - before[key] }

// histMean returns the mean of a histogram's observations between two
// scrapes, in the histogram's unit, and the observation count.
func histMean(before, after scrape, name string, labels ...string) (mean, count float64) {
	n := delta(before, after, seriesKey(name+"_count", labels...))
	if n == 0 {
		return 0, 0
	}
	return delta(before, after, seriesKey(name+"_sum", labels...)) / n, n
}

// sumScrapes adds snapshots of several processes key by key.
func sumScrapes(ss ...scrape) scrape {
	out := make(scrape)
	for _, s := range ss {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}
