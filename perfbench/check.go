package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"tifs/internal/engine"
	"tifs/internal/experiments"
	"tifs/internal/sim"
	"tifs/internal/workload"
)

// referencesFile holds the SHA-256 of every output the benchmark can
// render, keyed by reference id ("suite/fig13", "analysis/fig3",
// "point/OLTP-DB2/fdip"). It is recorded with -record-references.
const referencesFile = "perfbench/references.json"

//go:embed references.json
var referencesJSON []byte

func loadReferences() (map[string]string, error) {
	refs := map[string]string{}
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", referencesFile, err)
	}
	return refs, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checker counts ops and the ones that failed. An op is one experiment
// render in any phase, one service job, or one point.
type checker struct {
	refs      map[string]string
	attempted int
	failed    int
	log       io.Writer // receives one line naming each failed op
}

// verify counts op and fails it when err is set, when got's digest
// differs from the reference refID, or when got differs from the same
// run's cold bytes (nil cold skips that comparison).
func (c *checker) verify(op, refID, got string, cold *string, err error) {
	c.attempted++
	reason := ""
	switch want, ok := c.refs[refID]; {
	case err != nil:
		reason = err.Error()
	case !ok:
		reason = "no reference " + refID
	case digest(got) != want:
		reason = fmt.Sprintf("output differs from reference %s (%d bytes, sha256 %s)", refID, len(got), digest(got)[:12])
	case cold != nil && got != *cold:
		reason = "output differs from this run's cold bytes"
	}
	if reason != "" {
		c.failed++
		fmt.Fprintf(c.log, "FAIL %s: %s\n", op, reason)
	}
}

// op counts one op that has no bytes of its own (a service job) and
// fails it when err is set.
func (c *checker) op(name string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(c.log, "FAIL %s: %v\n", name, err)
	}
}

// sections verifies every experiment section of one rendered pass: the
// ops are op+"/"+id, their references prefix+"/"+id. cold, when non-nil,
// holds the cold pass's sections to compare against.
func (c *checker) sections(op, prefix string, ids []string, out string, err error, cold map[string]string) map[string]string {
	var secs map[string]string
	if err == nil {
		secs, err = splitSections(out, ids)
	}
	for _, id := range ids {
		var coldSec *string
		if cold != nil {
			s := cold[id]
			coldSec = &s
		}
		c.verify(op+"/"+id, prefix+"/"+id, secs[id], coldSec, err)
	}
	return secs
}

// splitSections cuts a several-experiment RunSelected rendering into
// each experiment's bare output. Every section is
// "== <id>: <description>\n\n" + output + "\n", in ids order.
func splitSections(out string, ids []string) (map[string]string, error) {
	header := func(id string) string {
		r, _ := experiments.ByID(id)
		return fmt.Sprintf("== %s: %s\n\n", id, r.Description)
	}
	secs := map[string]string{}
	rest := out
	for i, id := range ids {
		h := header(id)
		if !strings.HasPrefix(rest, h) {
			return nil, fmt.Errorf("section %d is not %q", i, strings.TrimSpace(h))
		}
		rest = rest[len(h):]
		end := len(rest)
		if i+1 < len(ids) {
			end = strings.Index(rest, "\n"+header(ids[i+1]))
			if end < 0 {
				return nil, fmt.Errorf("section %q is missing", ids[i+1])
			}
			end++
		}
		if end == 0 || rest[end-1] != '\n' {
			return nil, fmt.Errorf("section %q is not newline-terminated", id)
		}
		secs[id] = rest[:end-1]
		rest = rest[end:]
	}
	return secs, nil
}

// recordReferences renders every suite and analysis experiment and all
// 36 points through the serial path (engine parallelism 1, no store)
// and writes their digests to referencesFile. The 2-worker path the
// benchmark measures is thereby checked against a different schedule.
func recordReferences(ctx context.Context, log io.Writer) error {
	refs := map[string]string{}
	for _, w := range sweepWorkloads {
		eng := engine.New(1)
		o := experiments.Options{Context: ctx, Scale: w.scale, Engine: eng}
		out, err := experiments.RunSelected(w.ids, o, nil)
		eng.Close()
		if err != nil {
			return err
		}
		secs, err := splitSections(out, w.ids)
		if err != nil {
			return err
		}
		for id, s := range secs {
			refs[w.name+"/"+id] = digest(s)
		}
		fmt.Fprintf(log, "recorded %d %s experiments\n", len(secs), w.name)
	}
	for _, wl := range workload.Names() {
		for _, mech := range pointMechanisms {
			p := point{workload: wl, mechanism: mech}
			eng := engine.New(1)
			res := eng.RunAll(ctx, p.jobs())
			eng.Close()
			refs[p.refID()] = digest(p.report(res))
		}
		fmt.Fprintf(log, "recorded %d points of %s\n", len(pointMechanisms), wl)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencesFile, append(data, '\n'), 0o644)
}

// report renders a point the way tifssim prints it.
func (p point) report(res []sim.Result) string {
	return sim.Report(res[0], &res[1], pointScale, pointCores)
}
