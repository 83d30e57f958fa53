package dash

// indexHTML is the whole dashboard UI: no frameworks, no external assets,
// one EventSource. Colors follow the repo's chart conventions (see
// internal/plot): neutral surface and recessive grid tones, with status
// carried by the validated categorical palette — blue running, green done,
// red failed — plus a label on every cell so state is never color-alone.
const indexHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>napawine study</title>
<style>
  body { font-family: sans-serif; background: #fcfcfb; color: #0b0b0b; margin: 24px; }
  h1 { font-size: 18px; margin: 0 0 4px; }
  #meta { color: #52514e; font-size: 13px; margin-bottom: 12px; }
  #bar { height: 8px; background: #e7e6e3; border-radius: 4px; overflow: hidden; margin-bottom: 16px; }
  #fill { height: 100%; width: 0; background: #1baf7a; transition: width .3s; }
  #grid { display: flex; flex-wrap: wrap; gap: 8px; }
  .cell { width: 150px; border: 1px solid #e7e6e3; border-radius: 6px; padding: 6px 8px;
          background: #fff; font-size: 11px; }
  .cell .lbl { color: #52514e; white-space: nowrap; overflow: hidden; text-overflow: ellipsis; }
  .cell .st { font-weight: 600; }
  .cell.pending  .st { color: #52514e; }
  .cell.running  .st { color: #2a78d6; }
  .cell.done     .st { color: #1baf7a; }
  .cell.failed   .st { color: #e34948; }
  .cell.running  { border-color: #2a78d6; }
  .cell.failed   { border-color: #e34948; }
  svg.spark { display: block; margin-top: 4px; }
  #drops { color: #eb6834; font-size: 12px; margin-top: 12px; }
  #fleet { margin-top: 16px; font-size: 12px; color: #52514e; }
  #fleet div { border-left: 2px solid #e7e6e3; padding-left: 8px; margin: 2px 0; }
  .cell .wk { color: #8a67c8; }
</style>
</head>
<body>
<h1 id="name">napawine study</h1>
<div id="meta">waiting for study…</div>
<div id="bar"><div id="fill"></div></div>
<div id="grid"></div>
<div id="drops"></div>
<div id="fleet"></div>
<script>
"use strict";
const runs = new Map();   // index -> run view
const series = new Map(); // index -> [continuity...]
let study = null, dropped = 0;

function fmtMs(ms) {
  if (ms < 0) return "–";
  const s = Math.round(ms / 1000);
  return s >= 60 ? Math.floor(s / 60) + "m" + (s % 60) + "s" : s + "s";
}

function spark(pts) {
  if (!pts || pts.length < 2) return "";
  const w = 134, h = 20;
  const step = w / (pts.length - 1);
  const path = pts.map((v, i) =>
    (i * step).toFixed(1) + "," + (h - v * (h - 2) - 1).toFixed(1)).join(" ");
  return '<svg class="spark" width="' + w + '" height="' + h + '">' +
    '<polyline points="' + path + '" fill="none" stroke="#2a78d6" stroke-width="2"/></svg>';
}

function renderCell(r) {
  let el = document.getElementById("run-" + r.index);
  if (!el) {
    el = document.createElement("div");
    el.id = "run-" + r.index;
    document.getElementById("grid").appendChild(el);
  }
  el.className = "cell " + r.status;
  el.title = r.label + (r.error ? " — " + r.error : "");
  // The label line is clipped at the cell's width, and the congestion
  // coordinate sits near its end: repeat it where it is always visible.
  let detail = (r.queue_depth ? "q=" + r.queue_depth + " · " : "") + r.status;
  if (r.status === "done") detail += " · cont " + r.continuity.toFixed(3);
  if (r.elapsed_ms > 0) detail += " · " + fmtMs(r.elapsed_ms);
  const wk = r.worker ?
    ' <span class="wk">@' + r.worker.replace(/&/g, "&amp;").replace(/</g, "&lt;") + "</span>" : "";
  el.innerHTML = '<div class="lbl">' + (r.index + 1) + "/" + (study ? study.total : "?") +
    " " + r.label.replace(/&/g, "&amp;").replace(/</g, "&lt;") + "</div>" +
    '<div class="st">' + detail + wk + "</div>" + spark(series.get(r.index));
}

function renderStudy(s) {
  study = s;
  document.getElementById("name").textContent = "study " + (s.name || "(unnamed)");
  const fin = s.done + s.failed;
  document.getElementById("fill").style.width =
    (s.total ? 100 * fin / s.total : 0) + "%";
  document.getElementById("meta").textContent =
    fin + "/" + s.total + " finished · " + s.running + " running · " +
    s.failed + " failed · elapsed " + fmtMs(s.elapsed_ms) + " · eta " + fmtMs(s.eta_ms);
}

const es = new EventSource("/events");
es.addEventListener("study", e => renderStudy(JSON.parse(e.data)));
es.addEventListener("run", e => {
  const r = JSON.parse(e.data);
  runs.set(r.index, r);
  renderCell(r);
  fetch("/api/study").then(x => x.json()).then(renderStudy);
});
es.addEventListener("sample", e => {
  const s = JSON.parse(e.data);
  const pts = series.get(s.run) || [];
  pts.push(s.continuity);
  series.set(s.run, pts);
  const r = runs.get(s.run);
  if (r) renderCell(r);
});
es.addEventListener("fleet", e => {
  const n = JSON.parse(e.data);
  const el = document.createElement("div");
  el.textContent = fmtMs(n.t_ms) + " [" + n.kind + "] " + n.text;
  document.getElementById("fleet").appendChild(el);
});
es.addEventListener("drop", e => {
  dropped += JSON.parse(e.data).dropped;
  document.getElementById("drops").textContent =
    dropped + " events dropped on this connection (stream stayed live; refresh to resync)";
});
</script>
</body>
</html>
`
