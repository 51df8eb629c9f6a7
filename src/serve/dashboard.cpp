#include "serve/dashboard.hpp"

namespace pas::serve {

namespace {

// Single-file dashboard. Colors are the validated reference palette
// (series-1 blue carries the only data series; status colors always ship
// with a text label, never color alone). Light and dark are both
// selected, switched on prefers-color-scheme.
constexpr std::string_view kDashboardHtml = R"__pas(<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>pas-exp campaign</title>
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --ink-1: #0b0b0b;
  --ink-2: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --series-1-soft: #cde2fb;
  --status-good: #0ca30c;
  --status-warning: #fab219;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --ink-1: #ffffff;
    --ink-2: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --series-1-soft: #184f95;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1080px; margin: 0 auto; padding: 20px 16px 48px; }
header { display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap; }
h1 { font-size: 18px; margin: 0; }
h2 { font-size: 13px; margin: 0 0 8px; color: var(--ink-2);
     font-weight: 600; text-transform: uppercase; letter-spacing: .04em; }
#campaign-name { color: var(--ink-2); }
.badge { display: inline-flex; align-items: center; gap: 6px;
         font-size: 12px; color: var(--ink-2); }
.badge .dot { width: 8px; height: 8px; border-radius: 50%;
              background: var(--muted); }
.badge.running .dot { background: var(--status-good); }
.badge.interrupted .dot { background: var(--status-warning); }
.badge.done .dot { background: var(--series-1); }
.card { background: var(--surface-1); border: 1px solid var(--border);
        border-radius: 8px; padding: 14px 16px; }
.grid { display: grid; gap: 12px; margin-top: 16px; }
.tiles { grid-template-columns: repeat(auto-fit, minmax(140px, 1fr)); }
.tile .label { font-size: 12px; color: var(--ink-2); }
.tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
.tile .sub { font-size: 12px; color: var(--muted); }
.cols { grid-template-columns: 1fr 1fr; }
@media (max-width: 760px) { .cols { grid-template-columns: 1fr; } }
#bar-track { height: 10px; border-radius: 5px; background: var(--grid);
             overflow: hidden; margin-top: 10px; }
#bar-fill { height: 100%; width: 0%; border-radius: 5px;
            background: var(--series-1); transition: width .3s; }
table { width: 100%; border-collapse: collapse;
        font-variant-numeric: tabular-nums; }
th { text-align: left; font-size: 12px; color: var(--muted);
     font-weight: 500; padding: 4px 8px 4px 0;
     border-bottom: 1px solid var(--baseline); }
td { padding: 4px 8px 4px 0; border-bottom: 1px solid var(--grid);
     font-size: 13px; }
td.num, th.num { text-align: right; }
.state-label { font-size: 12px; }
.state-label.stale { color: var(--status-critical); font-weight: 600; }
#chart-wrap { position: relative; }
#chart { width: 100%; height: 160px; display: block; }
#tooltip { position: absolute; pointer-events: none; display: none;
           background: var(--surface-1); border: 1px solid var(--border);
           border-radius: 6px; padding: 4px 8px; font-size: 12px;
           color: var(--ink-1); white-space: nowrap;
           box-shadow: 0 2px 8px rgba(0,0,0,.12); }
#events { list-style: none; margin: 0; padding: 0; font-size: 12px; }
#events li { padding: 3px 0; border-bottom: 1px solid var(--grid);
             color: var(--ink-2); }
#events li b { color: var(--ink-1); font-weight: 600; }
footer { margin-top: 20px; font-size: 12px; color: var(--muted); }
a { color: var(--series-1); }
</style>
</head>
<body>
<main>
<header>
  <h1>pas-exp campaign</h1>
  <span id="campaign-name">&mdash;</span>
  <span id="state" class="badge idle"><span class="dot"></span>
    <span id="state-text">connecting&hellip;</span></span>
</header>

<div class="grid tiles">
  <div class="card tile"><div class="label">Points</div>
    <div class="value" id="t-points">&mdash;</div>
    <div class="sub" id="t-points-sub"></div></div>
  <div class="card tile"><div class="label">Throughput</div>
    <div class="value" id="t-rate">&mdash;</div>
    <div class="sub">points / s</div></div>
  <div class="card tile"><div class="label">Elapsed</div>
    <div class="value" id="t-elapsed">&mdash;</div>
    <div class="sub" id="t-eta"></div></div>
  <div class="card tile"><div class="label">Workers</div>
    <div class="value" id="t-workers">&mdash;</div></div>
</div>

<div class="card" style="margin-top:12px">
  <h2>Progress</h2>
  <div id="bar-track"><div id="bar-fill"></div></div>
  <div id="chart-wrap" style="margin-top:14px">
    <svg id="chart" role="img"
         aria-label="Point completion throughput over time"></svg>
    <div id="tooltip"></div>
  </div>
</div>

<div class="grid cols" style="margin-top:12px">
  <div class="card">
    <h2>Workers</h2>
    <table aria-label="Worker status">
      <thead><tr><th>id</th><th>state</th><th class="num">lease left</th>
        <th class="num">done</th><th class="num">last line</th></tr></thead>
      <tbody id="worker-rows">
        <tr><td colspan="5" style="color:var(--muted)">no workers
          (single-process run)</td></tr>
      </tbody>
    </table>
  </div>
  <div class="card">
    <h2>Events</h2>
    <ul id="events"></ul>
  </div>
</div>

<div class="card" style="margin-top:12px">
  <h2>Metrics</h2>
  <table aria-label="Live instruments">
    <thead><tr><th>instrument</th><th class="num">value / count</th>
      <th class="num">p50</th><th class="num">p95</th><th class="num">p99</th>
    </tr></thead>
    <tbody id="metric-rows">
      <tr><td colspan="5" style="color:var(--muted)">no metrics
        (run with --metrics)</td></tr>
    </tbody>
  </table>
</div>

<footer>
  API: <a href="/api/status">/api/status</a> &middot;
  <a href="/api/metrics">/api/metrics</a> &middot;
  <a href="/api/points?since=0">/api/points</a> &middot;
  <a href="/api/events">/api/events</a> (SSE)
</footer>
</main>

<script>
"use strict";
const $ = (id) => document.getElementById(id);
const fmt = (x) => x.toLocaleString("en-US");
const fmtS = (s) => {
  if (!isFinite(s)) return "—";
  if (s < 90) return s.toFixed(s < 10 ? 1 : 0) + "s";
  const m = Math.floor(s / 60);
  return m + "m" + String(Math.round(s - m * 60)).padStart(2, "0") + "s";
};

// Throughput series: one sample per progress event, rate from the delta
// against the previous sample. Bounded window keeps the SVG cheap.
const samples = [];
let lastProgress = null;
const MAX_SAMPLES = 240;

function setState(name) {
  const badge = $("state");
  badge.className = "badge " + name;
  $("state-text").textContent = name;
}

function onProgress(p) {
  $("t-points").textContent = fmt(p.done) + " / " + fmt(p.total);
  const pct = p.total > 0 ? (100 * p.done / p.total) : 0;
  $("t-points-sub").textContent = pct.toFixed(1) + "% complete";
  $("bar-fill").style.width = pct.toFixed(2) + "%";
  $("t-elapsed").textContent = fmtS(p.elapsed_s);
  $("t-workers").textContent = p.workers > 0 ? String(p.workers) : "1";
  if (lastProgress && p.elapsed_s > lastProgress.elapsed_s) {
    const rate = (p.done - lastProgress.done) /
                 (p.elapsed_s - lastProgress.elapsed_s);
    if (rate >= 0) {
      samples.push({ t: p.elapsed_s, rate: rate });
      if (samples.length > MAX_SAMPLES) samples.shift();
      $("t-rate").textContent =
          rate >= 100 ? fmt(Math.round(rate)) : rate.toFixed(1);
      const left = p.total - p.done;
      $("t-eta").textContent =
          rate > 0 && left > 0 ? "ETA " + fmtS(left / rate) : "";
    }
  }
  lastProgress = p;
  drawChart();
}

function drawChart() {
  const svg = $("chart");
  const W = svg.clientWidth || 600, H = svg.clientHeight || 160;
  svg.setAttribute("viewBox", "0 0 " + W + " " + H);
  if (samples.length < 2) { svg.innerHTML = ""; return; }
  const padL = 38, padR = 8, padT = 8, padB = 18;
  const t0 = samples[0].t, t1 = samples[samples.length - 1].t;
  const rmax = Math.max(1e-9, ...samples.map((s) => s.rate));
  const x = (t) => padL + (W - padL - padR) * (t - t0) / Math.max(1e-9, t1 - t0);
  const y = (r) => padT + (H - padT - padB) * (1 - r / rmax);
  let g = "";
  for (let i = 0; i <= 2; i++) {
    const r = rmax * i / 2, yy = y(r);
    g += '<line x1="' + padL + '" y1="' + yy + '" x2="' + (W - padR) +
         '" y2="' + yy + '" stroke="var(--grid)" stroke-width="1"/>' +
         '<text x="' + (padL - 6) + '" y="' + (yy + 4) +
         '" text-anchor="end" font-size="10" fill="var(--muted)">' +
         (r >= 100 ? Math.round(r) : r.toFixed(1)) + "</text>";
  }
  g += '<line x1="' + padL + '" y1="' + (H - padB) + '" x2="' + (W - padR) +
       '" y2="' + (H - padB) + '" stroke="var(--baseline)"/>';
  const pts = samples.map((s) => x(s.t).toFixed(1) + "," + y(s.rate).toFixed(1))
      .join(" ");
  g += '<polyline points="' + pts + '" fill="none" stroke="var(--series-1)"' +
       ' stroke-width="2" stroke-linejoin="round"/>';
  const last = samples[samples.length - 1];
  g += '<circle cx="' + x(last.t).toFixed(1) + '" cy="' +
       y(last.rate).toFixed(1) +
       '" r="4" fill="var(--series-1)" stroke="var(--surface-1)"' +
       ' stroke-width="2"/>';
  g += '<text x="' + (W - padR) + '" y="' + (H - 4) +
       '" text-anchor="end" font-size="10" fill="var(--muted)">' +
       fmtS(t1) + "</text>";
  svg.innerHTML = g;
}

$("chart-wrap").addEventListener("mousemove", (ev) => {
  if (samples.length < 2) return;
  const rect = $("chart").getBoundingClientRect();
  const W = rect.width, padL = 38, padR = 8;
  const t0 = samples[0].t, t1 = samples[samples.length - 1].t;
  const frac = Math.min(1, Math.max(0,
      (ev.clientX - rect.left - padL) / Math.max(1, W - padL - padR)));
  const t = t0 + frac * (t1 - t0);
  let best = samples[0];
  for (const s of samples) {
    if (Math.abs(s.t - t) < Math.abs(best.t - t)) best = s;
  }
  const tip = $("tooltip");
  tip.style.display = "block";
  tip.textContent = best.rate.toFixed(2) + " pts/s at " + fmtS(best.t);
  tip.style.left = Math.min(ev.clientX - rect.left + 12, W - 150) + "px";
  tip.style.top = "8px";
});
$("chart-wrap").addEventListener("mouseleave", () => {
  $("tooltip").style.display = "none";
});

function logEvent(kind, text) {
  const ul = $("events");
  const li = document.createElement("li");
  const b = document.createElement("b");
  b.textContent = kind + " ";
  li.appendChild(b);
  li.appendChild(document.createTextNode(text));
  ul.insertBefore(li, ul.firstChild);
  while (ul.children.length > 10) ul.removeChild(ul.lastChild);
}

function renderWorkers(workers) {
  const tbody = $("worker-rows");
  if (!workers || workers.length === 0) return;
  tbody.innerHTML = "";
  for (const w of workers) {
    const tr = document.createElement("tr");
    const stale = w.hb_age_s > 5;
    tr.innerHTML =
        "<td>" + w.id + "</td>" +
        '<td><span class="state-label' + (stale ? " stale" : "") + '">' +
        (stale ? "stalled" : (w.has_lease ? "leased" : "idle")) +
        "</span></td>" +
        '<td class="num">' + (w.has_lease ? w.lease_points_left : "—") +
        "</td>" +
        '<td class="num">' + w.points_done + "</td>" +
        '<td class="num">' + w.hb_age_s.toFixed(1) + "s</td>";
    tbody.appendChild(tr);
  }
}

function renderMetrics(m) {
  const inst = m && m.instruments;
  if (!inst || Object.keys(inst).length === 0) return;
  const tbody = $("metric-rows");
  tbody.innerHTML = "";
  for (const name of Object.keys(inst).sort()) {
    const v = inst[name];
    const tr = document.createElement("tr");
    if (typeof v === "object") {
      const q = (k) => k in v ? Number(v[k]).toPrecision(3) : "—";
      tr.innerHTML = "<td>" + name + '</td><td class="num">' + v.total +
          '</td><td class="num">' + q("p50") + '</td><td class="num">' +
          q("p95") + '</td><td class="num">' + q("p99") + "</td>";
    } else {
      tr.innerHTML = "<td>" + name + '</td><td class="num">' + fmt(v) +
          '</td><td class="num">—</td><td class="num">—</td>' +
          '<td class="num">—</td>';
    }
    tbody.appendChild(tr);
  }
}

async function poll() {
  try {
    const status = await (await fetch("/api/status")).json();
    setState(status.state);
    $("campaign-name").textContent = status.campaign || "—";
    renderWorkers(status.workers);
    if (!lastProgress) {
      onProgress({ done: status.done_points, total: status.total_points,
                   elapsed_s: status.elapsed_s,
                   workers: status.workers.length });
    }
  } catch (e) { /* server restarting; keep trying */ }
  try {
    renderMetrics(await (await fetch("/api/metrics")).json());
  } catch (e) { /* metrics optional */ }
}

const es = new EventSource("/api/events");
es.addEventListener("progress", (ev) => onProgress(JSON.parse(ev.data)));
es.addEventListener("campaign", (ev) => {
  const d = JSON.parse(ev.data);
  logEvent("campaign", d.event + (d.name ? " " + d.name : ""));
  if (d.event === "start") { setState("running"); samples.length = 0;
                             lastProgress = null; }
  if (d.event === "done") setState("done");
  if (d.event === "interrupted") setState("interrupted");
});
es.addEventListener("worker", (ev) => {
  const d = JSON.parse(ev.data);
  logEvent("worker " + d.worker, d.event + (d.detail ? ": " + d.detail : ""));
});
es.addEventListener("shutdown", () => { setState("idle");
                                        logEvent("server", "shutdown"); });
es.onerror = () => setState("idle");

poll();
setInterval(poll, 2000);
window.addEventListener("resize", drawChart);
</script>
</body>
</html>
)__pas";

}  // namespace

std::string_view dashboard_html() noexcept { return kDashboardHtml; }

}  // namespace pas::serve
