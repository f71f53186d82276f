package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"html"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"shareinsights/internal/connector"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/flowfile"
)

// The oracles. Each judges served outputs against a result the
// benchmark derives independently of the serving path: rerun's from the
// generator's rows with no engine at all, fresh's and interact's from an
// in-process run on the unoptimized row engine plus plain Go filters.

// ticketsWant is the rerun oracle's expected endpoint content.
type ticketsWant struct {
	daysByCategory map[string]float64 // by_category: category -> sum(resolved_days)
	countByDay     map[string]float64 // by_day: created -> count
}

// ticketsExpected aggregates the generated tickets CSV the way
// ticketsFlow does, without the engine.
func ticketsExpected(payload []byte) (*ticketsWant, error) {
	recs, err := csv.NewReader(bytes.NewReader(payload)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("parse generated tickets: %w", err)
	}
	w := &ticketsWant{daysByCategory: map[string]float64{}, countByDay: map[string]float64{}}
	for _, r := range recs {
		sev, err := strconv.Atoi(r[2])
		if err != nil {
			return nil, fmt.Errorf("ticket severity %q: %w", r[2], err)
		}
		if sev < 3 {
			continue
		}
		days, err := strconv.ParseFloat(r[5], 64)
		if err != nil {
			return nil, fmt.Errorf("ticket resolved_days %q: %w", r[5], err)
		}
		w.daysByCategory[r[3]] += days
		w.countByDay[r[1]]++
	}
	return w, nil
}

// checkTickets reads rerun's two endpoints and compares them with want.
func checkTickets(c *client, want *ticketsWant) error {
	for _, ep := range []struct {
		name, key, val string
		want           map[string]float64
	}{
		{"by_category", "category", "days", want.daysByCategory},
		{"by_day", "created", "count", want.countByDay},
	} {
		b, err := c.must("GET", "/dashboards/tickets/ds/"+ep.name, nil)
		if err != nil {
			return err
		}
		got, err := keyedSums(b, ep.key, ep.val)
		if err != nil {
			return fmt.Errorf("endpoint %s: %w", ep.name, err)
		}
		if err := sameSums(got, ep.want); err != nil {
			return fmt.Errorf("endpoint %s: %w", ep.name, err)
		}
	}
	return nil
}

// keyedSums decodes a JSON endpoint body into key column -> value
// column, refusing duplicate keys (a groupby emits each key once).
func keyedSums(body []byte, key, val string) (map[string]float64, error) {
	var rows []map[string]any
	if err := json.Unmarshal(body, &rows); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, r := range rows {
		k := dateKey(fmt.Sprint(r[key]))
		v, ok := r[val].(float64)
		if !ok {
			return nil, fmt.Errorf("row %v: %s is not a number", r, val)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("key %q appears twice", k)
		}
		out[k] = v
	}
	return out, nil
}

// dateKey trims a rendered timestamp to its date, so "2014-01-05" and
// "2014-01-05T00:00:00Z" compare equal; other strings pass unchanged.
func dateKey(s string) string {
	if len(s) > 10 && s[4] == '-' && s[7] == '-' && (s[10] == 'T' || s[10] == ' ') {
		return s[:10]
	}
	return s
}

// sameSums reports the first difference between two keyed maps.
func sameSums(got, want map[string]float64) error {
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("missing key %q", k)
		}
		if g != w {
			return fmt.Errorf("key %q: got %v, want %v", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("unexpected key %q", k)
		}
	}
	return nil
}

// digestJSON reduces a JSON array of row objects to a digest that does
// not depend on row or key order.
func digestJSON(body []byte) (string, error) {
	var rows []map[string]any
	if err := json.Unmarshal(body, &rows); err != nil {
		return "", err
	}
	return digestRows(rows), nil
}

func digestRows(rows []map[string]any) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(canonical(r[k]))
			sb.WriteByte(0x1f)
		}
		lines[i] = sb.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func canonical(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return strconv.Quote(dateKey(x))
	default:
		return fmt.Sprint(x)
	}
}

// reference is the in-process reference run of processingFlow over one
// batch: the digest of each published object, and the rows the interact
// oracle filters.
type reference struct {
	digests      map[string]string
	players      []map[string]any // players_tweets: date, player, count
	words        []map[string]any // tagcloud_tweets: date, word, count
	playerTotals string           // digest of player_totals
}

// referenceRun runs processingFlow over batch in-process with the
// optimizer off and the row engine only, and returns each published
// endpoint as JSON.
func referenceRun(batch []byte) (map[string][]byte, error) {
	p := dashboard.NewPlatform()
	p.Optimize = false
	p.Columnar = "off"
	f, err := flowfile.Parse("ipl_processing", processingFlow)
	if err != nil {
		return nil, err
	}
	res := resources()
	res["tweets.csv"] = batch
	d, err := p.Compile(f, res)
	if err != nil {
		return nil, err
	}
	if err := d.Run(); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	out := map[string][]byte{}
	for _, name := range publishedObjects {
		t, ok := d.Endpoint(name)
		if !ok {
			return nil, fmt.Errorf("reference run: no endpoint %s", name)
		}
		if out[name], err = connector.EncodeJSON(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// referencePublished is the digest of each published object of the
// reference run over batch.
func referencePublished(batch []byte) (map[string]string, error) {
	bodies, err := referenceRun(batch)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for name, b := range bodies {
		if out[name], err = digestJSON(b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// referenceTables is referencePublished plus the decoded rows and the
// viewer endpoint's expected content.
func referenceTables(batch []byte) (*reference, error) {
	bodies, err := referenceRun(batch)
	if err != nil {
		return nil, err
	}
	ref := &reference{digests: map[string]string{}}
	for name, b := range bodies {
		var rows []map[string]any
		if err := json.Unmarshal(b, &rows); err != nil {
			return nil, err
		}
		ref.digests[name] = digestRows(rows)
		switch name {
		case "players_tweets":
			ref.players = rows
		case "tagcloud_tweets":
			ref.words = rows
		}
	}
	totals := sumBy(ref.players, "player", "count", "", "")
	rows := make([]map[string]any, 0, len(totals))
	for k, v := range totals {
		rows = append(rows, map[string]any{"player": k, "noOfTweets": v})
	}
	ref.playerTotals = digestRows(rows)
	return ref, nil
}

// sumBy is the reference filter and aggregation: rows whose date lies in
// [lo, hi] (all rows when lo is empty), summed by key column. A null
// key renders as the empty label, as the widgets render it.
func sumBy(rows []map[string]any, key, val, lo, hi string) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if lo != "" {
			d := dateKey(fmt.Sprint(r["date"]))
			if d < lo || d > hi {
				continue
			}
		}
		k := ""
		if r[key] != nil {
			k = fmt.Sprint(r[key])
		}
		v, _ := r[val].(float64)
		out[k] += v
	}
	return out
}

// checkPlayerTotals compares a served player_totals body with the
// reference.
func checkPlayerTotals(body []byte, ref *reference) error {
	got, err := digestJSON(body)
	if err != nil {
		return fmt.Errorf("player_totals: %w", err)
	}
	if got != ref.playerTotals {
		return fmt.Errorf("player_totals differs from the reference aggregation")
	}
	return nil
}

var (
	cloudRE = regexp.MustCompile(`<div class="widget wordcloud" data-widget="([a-z_]+)">(.*?)</div>`)
	titleRE = regexp.MustCompile(`title="([^"]*)"`)
)

// parseClouds extracts every word cloud of a rendered page as widget ->
// label -> size, as the tooltips print them.
func parseClouds(page []byte) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, m := range cloudRE.FindAllSubmatch(page, -1) {
		cloud := map[string]string{}
		for _, t := range titleRE.FindAllSubmatch(m[2], -1) {
			title := html.UnescapeString(string(t[1]))
			i := strings.LastIndex(title, ": ")
			if i < 0 {
				continue
			}
			cloud[title[:i]] = title[i+2:]
		}
		out[string(m[1])] = cloud
	}
	return out
}

// checkViewerHTML compares the two word clouds of a page rendered under
// the selection [lo, hi] with the reference filter of the published
// objects.
func checkViewerHTML(h htmlSample, ref *reference) error {
	clouds := parseClouds(h.body)
	for _, w := range []struct {
		widget, key string
		rows        []map[string]any
	}{
		{"player_tweets", "player", ref.players},
		{"word_tweets", "word", ref.words},
	} {
		got, ok := clouds[w.widget]
		if !ok {
			return fmt.Errorf("page for [%s, %s]: no %s word cloud", h.lo, h.hi, w.widget)
		}
		want := sumBy(w.rows, w.key, "count", h.lo, h.hi)
		if len(got) != len(want) {
			return fmt.Errorf("page for [%s, %s]: %s has %d labels, reference %d", h.lo, h.hi, w.widget, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != fmt.Sprintf("%g", v) {
				return fmt.Errorf("page for [%s, %s]: %s label %q size %q, reference %g", h.lo, h.hi, w.widget, k, got[k], v)
			}
		}
	}
	return nil
}
