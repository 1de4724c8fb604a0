package server

// indexHTML is the minimal built-in crowd interface: it polls the question
// queue and lets a crowd member answer boolean and completion tasks — the
// "User Interface" box of the paper's Figure 5, reduced to one page.
const indexHTML = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>QOCO crowd console</title>
<style>
  body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 48rem; }
  .q { border: 1px solid #ccc; border-radius: 6px; padding: 1rem; margin: 1rem 0; }
  .kind { color: #666; font-size: .85rem; text-transform: uppercase; }
  button { margin-right: .5rem; }
  input { margin: .15rem 0; }
  ul { margin: .25rem 0; }
</style>
</head>
<body>
<h1>QOCO crowd console</h1>
<p>Pending questions refresh every second. Answer honestly — you are the oracle.</p>
<div id="questions"><em>loading…</em></div>
<script>
async function post(id, body) {
  await fetch('/api/v1/questions/' + id + '/answer', {method: 'POST', body: JSON.stringify(body)});
  refresh();
}
function boolButtons(q) {
  return '<button onclick=\'post(' + q.id + ', {bool: true})\'>Yes</button>' +
         '<button onclick=\'post(' + q.id + ', {bool: false})\'>No</button>';
}
function completeForm(q) {
  var inputs = (q.unbound || []).map(function(v) {
    return v + ': <input id="q' + q.id + '_' + v + '" size="12"><br>';
  }).join('');
  return inputs +
    '<button onclick="submitComplete(' + q.id + ', ' + JSON.stringify(q.unbound || []).replace(/"/g, '&quot;') + ')">Submit</button>' +
    '<button onclick=\'post(' + q.id + ', {none: true})\'>Impossible</button>';
}
function submitComplete(id, vars) {
  var b = {};
  for (var i = 0; i < vars.length; i++) {
    b[vars[i]] = document.getElementById('q' + id + '_' + vars[i]).value;
  }
  post(id, {bindings: b});
}
function completeResultForm(q) {
  var rows = (q.current || []).map(function(r){return '<li>(' + r.join(', ') + ')</li>';}).join('');
  return '<ul>' + rows + '</ul>' +
    'Missing answer (comma-separated): <input id="qr' + q.id + '" size="30"> ' +
    '<button onclick="submitMissing(' + q.id + ')">Submit</button>' +
    '<button onclick=\'post(' + q.id + ', {none: true})\'>Complete</button>';
}
function submitMissing(id) {
  var v = document.getElementById('qr' + id).value;
  var tuple = v.split(',').map(function(s){return s.trim();}).filter(function(s){return s;});
  post(id, {tuple: tuple});
}
async function refresh() {
  var res = await fetch('/api/v1/questions');
  var qs = await res.json();
  var html = qs.length ? '' : '<em>no pending questions</em>';
  for (var i = 0; i < qs.length; i++) {
    var q = qs[i];
    var controls;
    if (q.kind === 'verify-fact' || q.kind === 'verify-answer') controls = boolButtons(q);
    else if (q.kind === 'complete') controls = completeForm(q);
    else controls = completeResultForm(q);
    html += '<div class="q"><div class="kind">' + q.kind + ' #' + q.id + '</div>' +
            '<p>' + q.text + '</p>' + controls + '</div>';
  }
  document.getElementById('questions').innerHTML = html;
}
refresh();
setInterval(refresh, 1000);
</script>
</body>
</html>
`
