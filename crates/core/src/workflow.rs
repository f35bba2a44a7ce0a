//! Workflow forecasting — the paper's §VI outlook, implemented.
//!
//! "In the future we plan to add some service which will not only forecast
//! network transfers but also full workflows involving computations and
//! network transfers. This is another reason why we chose SimGrid, as
//! adding the simulation of computation will be straightforward." It is:
//! the kernel already shares host CPUs through the same max-min solver,
//! so a workflow forecast is a DAG mapped onto dependent kernel works.
//!
//! A workflow takes the one forecast path predicts and selects take. The
//! probe parses it here, as slices of the request, and has its
//! dependencies checked to form a DAG ([`Dependencies::new`]); the engine
//! keys it (labels included, since the answer names them) and looks it
//! up, and a miss is one simulation of its tasks on the session's
//! recycled scratch. Its answer is rendered here, and filed on its first
//! hit like any forecast's.

use std::fmt;

use forecast::{Dependencies, Selection, Task};
use jsonlite::print::{write_number, write_string};

use crate::http::{Request, Response};

/// A workflow query, parsed: its labelled tasks and its dependencies.
type Parsed<'r> = (Vec<(&'r str, Task<'r>)>, Dependencies);

/// Parses a workflow query's tasks, declared positionally as
/// `task=<name>,compute,<host>,<flops>` or
/// `task=<name>,transfer,<src>,<dst>,<bytes>`, and its dependencies,
/// `dep=<task_index>,<depends_on_index>`, into slices of the request; a
/// malformed query, or dependencies that are not a DAG, yield the 400 to
/// send back.
pub(crate) fn parse(req: &Request) -> Result<Parsed<'_>, Response> {
    let mut tasks = Vec::with_capacity(req.params_named("task").count());
    for spec in req.params_named("task") {
        let mut parts = spec.split(',').map(str::trim);
        let label = parts.next().unwrap_or_default();
        let amount = |text: &str| text.parse::<f64>().ok();
        let task = match (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) {
            (Some("compute"), Some(host), Some(flops), None, _) => {
                amount(flops).map(|flops| Task::Compute(host, flops))
            }
            (Some("transfer"), Some(src), Some(dst), Some(bytes), None) => {
                amount(bytes).map(|bytes| Task::Transfer((src, dst, bytes)))
            }
            _ => None,
        };
        let Some(task) = task else {
            return Err(Response::error(
                400,
                &format!(
                    "malformed task '{spec}' (want name,compute,host,flops \
                     or name,transfer,src,dst,bytes)"
                ),
            ));
        };
        tasks.push((label, task));
    }
    if tasks.is_empty() {
        return Err(Response::error(
            400,
            "at least one 'task' parameter required",
        ));
    }
    let mut edges = Vec::with_capacity(req.params_named("dep").count());
    for dep in req.params_named("dep") {
        let parsed: Option<(usize, usize)> = dep
            .split_once(',')
            .and_then(|(a, b)| Some((a.trim().parse().ok()?, b.trim().parse().ok()?)));
        match parsed {
            Some((task, on)) if task < tasks.len() && on < tasks.len() => edges.push((task, on)),
            _ => {
                return Err(Response::error(
                    400,
                    &format!("malformed dep '{dep}' (want task_index,depends_on_index)"),
                ))
            }
        }
    }
    let deps = Dependencies::new(tasks.len(), &edges).map_err(|e| Response::error(400, &e))?;
    Ok((tasks, deps))
}

/// A workflow's answer, `{"makespan":…,"tasks":[{"name":…,"start":…,
/// "finish":…},…]}`, with the tasks named by `labels`, written as the
/// predictions array is. A task killed by a dead link, or downstream of
/// one, never finishes: its `finish` and the makespan print as `null`.
pub(crate) fn render<'t>(labels: impl Iterator<Item = &'t str> + Clone, sel: &Selection) -> String {
    // per task: its label, 34 bytes of keys and punctuation, and two
    // numbers of at most 24 bytes each
    let names: usize = labels.clone().map(str::len).sum();
    let mut out = String::with_capacity(40 + names + 82 * sel.starts.len());
    let write = |out: &mut String| -> fmt::Result {
        out.push_str(r#"{"makespan":"#);
        write_number(sel.best_makespan, out)?;
        out.push_str(r#","tasks":["#);
        let times = sel.starts.iter().zip(&sel.durations);
        for (i, (label, (&start, &finish))) in labels.zip(times).enumerate() {
            out.push_str(if i == 0 {
                r#"{"name":"#
            } else {
                r#",{"name":"#
            });
            write_string(label, out)?;
            out.push_str(r#","start":"#);
            write_number(start, out)?;
            out.push_str(r#","finish":"#);
            write_number(finish, out)?;
            out.push('}');
        }
        out.push_str("]}");
        Ok(())
    };
    // writing to a `String` cannot fail
    let _ = write(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use g5k::{synth, to_simflow, Flavor};
    use jsonlite::Value;
    use simflow::NetworkConfig;

    use crate::{Metrology, PilgrimService, Pnfs};

    use super::*;

    fn service() -> PilgrimService {
        let mut pnfs = Pnfs::new(NetworkConfig::ideal());
        pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
        PilgrimService::new(Metrology::new(), pnfs)
    }

    /// Forecasts the workflow `query` asks: its status and body.
    fn forecast(svc: &PilgrimService, query: &str) -> (u16, Value) {
        let resp = svc.handle(&Request::synthetic(
            "/pilgrim/forecast_workflow/g5k_test",
            query,
        ));
        (resp.status, Value::parse(&resp.body).expect("json body"))
    }

    /// `(start, finish)` of task `i` of an answer.
    fn times(v: &Value, i: usize) -> (f64, f64) {
        let task = &v["tasks"][i];
        (
            task["start"].as_f64().unwrap(),
            task["finish"].as_f64().unwrap(),
        )
    }

    const A: &str = "sagittaire-1.lyon.grid5000.fr";
    const B: &str = "sagittaire-2.lyon.grid5000.fr";

    #[test]
    fn scatter_compute_gather() {
        // the paper's motivating scenario: ship data, compute, ship back
        let (status, f) = forecast(
            &service(),
            &format!(
                "task=upload,transfer,{A},{B},1.25e8&task=solve,compute,{B},4.8e9\
                 &task=download,transfer,{B},{A},1.25e7&dep=1,0&dep=2,1"
            ),
        );
        assert_eq!(status, 200, "{f}");
        assert_eq!(f["tasks"].as_array().unwrap().len(), 3);
        // upload: 125 MB at 125 MB/s ≈ 1 s; solve: 4.8 Gflop at 4.8 Gflop/s
        // = 1 s; download ≈ 0.1 s ⇒ makespan ≈ 2.1 s
        let makespan = f["makespan"].as_f64().unwrap();
        assert!((makespan - 2.1).abs() < 0.05, "{makespan}");
        assert!(times(&f, 1).0 >= times(&f, 0).1 - 1e-9);
        assert!(times(&f, 2).0 >= times(&f, 1).1 - 1e-9);
    }

    #[test]
    fn independent_tasks_run_concurrently() {
        let (status, f) = forecast(
            &service(),
            &format!(
                "task=t1,transfer,{A},{B},1.25e8\
                 &task=c1,compute,sagittaire-3.lyon.grid5000.fr,4.8e9"
            ),
        );
        assert_eq!(status, 200, "{f}");
        // both ≈ 1 s, overlapped
        assert!(f["makespan"].as_f64().unwrap() < 1.5, "{f}");
    }

    #[test]
    fn is_it_worth_moving_the_data() {
        // the paper's §I question: move 1 TB to a faster cluster to save
        // 2 h of compute time? Answer by forecasting both workflows.
        let svc = service();
        let (slow, fast) = (A, "graphene-1.nancy.grid5000.fr"); // 4.8 and 10 Gflop/s
        let work = 3.456e13; // 2 h on the slow host
        let (_, local) = forecast(&svc, &format!("task=compute,compute,{slow},{work}"));
        let (_, remote) = forecast(
            &svc,
            &format!(
                "task=move 1TB,transfer,{slow},{fast},1e12&task=compute,compute,{fast},{work}\
                 &dep=1,0"
            ),
        );
        // moving 1 TB over a gigabit NIC takes ≈ 8000 s; the compute gain
        // is 7200 − 3456 ≈ 3744 s: not worth it, exactly the paper's point
        let makespan = |v: &Value| v["makespan"].as_f64().unwrap();
        assert!(makespan(&local) < makespan(&remote), "{local} vs {remote}");
    }

    #[test]
    fn cycles_are_rejected() {
        assert_eq!(
            Dependencies::new(2, &[(0, 1), (1, 0)]).unwrap_err(),
            "workflow contains a dependency cycle"
        );
        assert_eq!(
            Dependencies::new(3, &[(2, 1), (1, 1)]).unwrap_err(),
            "task 1 depends on itself"
        );
        assert_eq!(
            Dependencies::new(2, &[(1, 0), (0, 5)]).unwrap_err(),
            "dependency 0,5 names no task"
        );
        let (status, v) = forecast(
            &service(),
            &format!("task=a,compute,{A},1&task=b,compute,{A},1&dep=0,1&dep=1,0"),
        );
        assert_eq!(status, 400, "{v}");
    }

    #[test]
    fn unknown_host_is_reported() {
        let (status, v) = forecast(&service(), "task=a,compute,ghost,1");
        assert_eq!(status, 404, "{v}");
        assert_eq!(v["error"].as_str(), Some("unknown host 'ghost'"));
    }

    #[test]
    fn forecast_json_shape() {
        let (status, json) = forecast(&service(), &format!("task=only,compute,{A},4.8e9"));
        assert_eq!(status, 200, "{json}");
        assert_eq!(json["tasks"][0]["name"].as_str(), Some("only"));
        assert!(json["makespan"].as_f64().unwrap() > 0.9);
    }
}
