package main

import (
	"context"
	"strconv"
	"strings"
	"time"
)

// promSample maps each series ("name" or "name{labels}") of a /metrics
// scrape to its value.
type promSample map[string]float64

func parseProm(text string) promSample {
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
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
		out[line[:i]] += v
	}
	return out
}

// sum adds every series of the family name (all label sets).
func (p promSample) sum(name string) float64 {
	total := 0.0
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// scrapeAll reads /metrics from every URL and merges the samples, so a
// fleet's backends add up.
func scrapeAll(ctx context.Context, c *client, urls []string) (promSample, error) {
	out := promSample{}
	for _, u := range urls {
		text, err := c.getText(ctx, u+"/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range parseProm(text) {
			out[k] += v
		}
	}
	return out, nil
}

// delta is after - before for one series sum.
func delta(before, after promSample, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// serverTrace is the part of /debug/jobs/{id}/trace the benchmark reads.
type serverTrace struct {
	ID        string             `json:"id"`
	Submitted time.Time          `json:"submitted"`
	PhasesMS  map[string]float64 `json:"phases_ms"`
	// megachunks is the number of distinct chunks the job's pipeline
	// computed, from the trace's Chrome export.
	megachunks int
}

// chromeEvent is the part of a Chrome trace event the benchmark reads.
type chromeEvent struct {
	Name string `json:"name"`
	Args struct {
		Chunk *int `json:"chunk"`
	} `json:"args"`
}

// chunkCount counts the distinct chunks of the compute spans in a job's
// Chrome trace export. Work over the whole array (the final merge) is
// recorded as chunk -1 and is not a chunk, as in telemetry.Analyze.
func chunkCount(events []chromeEvent) int {
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Name == "compute" && ev.Args.Chunk != nil && *ev.Args.Chunk >= 0 {
			seen[*ev.Args.Chunk] = true
		}
	}
	return len(seen)
}

// wallMS is the server-side time a client waits on: the wall phases
// (admit, queue, lease, run) plus the post-terminal merge and stream
// of the result download.
func (t *serverTrace) wallMS() float64 {
	return t.PhasesMS["admit"] + t.PhasesMS["queue"] + t.PhasesMS["lease"] + t.PhasesMS["run"] + t.PhasesMS["merge"] + t.PhasesMS["stream"]
}

// fetchTraces reads the flight recorder of every backend and returns the
// traces of jobs submitted at or after since.
func fetchTraces(ctx context.Context, c *client, urls []string, since time.Time) ([]*serverTrace, error) {
	var out []*serverTrace
	for _, u := range urls {
		var fr struct {
			Jobs []struct {
				ID        string    `json:"id"`
				Submitted time.Time `json:"submitted"`
			} `json:"jobs"`
		}
		if err := c.getJSON(ctx, u+"/debug/flightrecorder", &fr); err != nil {
			return nil, err
		}
		for _, j := range fr.Jobs {
			if j.Submitted.Before(since) {
				continue
			}
			t := &serverTrace{}
			if err := c.getJSON(ctx, u+"/debug/jobs/"+j.ID+"/trace", t); err != nil {
				continue // evicted between the listing and the fetch
			}
			var chrome struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := c.getJSON(ctx, u+"/debug/jobs/"+j.ID+"/trace?format=chrome", &chrome); err != nil {
				continue
			}
			t.megachunks = chunkCount(chrome.TraceEvents)
			out = append(out, t)
		}
	}
	return out, nil
}
