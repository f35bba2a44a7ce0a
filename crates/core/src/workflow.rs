//! Workflow forecasting — the paper's §VI outlook, implemented.
//!
//! "In the future we plan to add some service which will not only forecast
//! network transfers but also full workflows involving computations and
//! network transfers. This is another reason why we chose SimGrid, as
//! adding the simulation of computation will be straightforward." It is:
//! the kernel already shares host CPUs through the same max-min solver,
//! so a workflow forecast is a DAG mapped onto dependent kernel works.

use forecast::Session;
use jsonlite::Value;
use simflow::SimTime;

use crate::pnfs::PnfsError;

/// What a workflow task does.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskKind {
    /// Move `bytes` from `src` to `dst`.
    Transfer {
        /// Source host name.
        src: String,
        /// Destination host name.
        dst: String,
        /// Payload size in bytes.
        bytes: f64,
    },
    /// Run `flops` of computation on `host`.
    Compute {
        /// Executing host name.
        host: String,
        /// Amount of computation.
        flops: f64,
    },
}

/// One task of a workflow.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Task label (reported back in the forecast).
    pub name: String,
    /// What the task does.
    pub kind: TaskKind,
    /// Indices of tasks that must complete first.
    pub deps: Vec<usize>,
}

/// A workflow: a DAG of compute and transfer tasks.
#[derive(Clone, Debug, Default)]
pub struct Workflow {
    /// Tasks; edges point backwards through [`TaskSpec::deps`].
    pub tasks: Vec<TaskSpec>,
}

impl Workflow {
    /// An empty workflow.
    pub fn new() -> Self {
        Workflow::default()
    }

    /// Appends a task, returning its index.
    pub fn add(&mut self, name: &str, kind: TaskKind, deps: &[usize]) -> usize {
        self.tasks.push(TaskSpec { name: name.to_string(), kind, deps: deps.to_vec() });
        self.tasks.len() - 1
    }

    /// Validates indices and acyclicity; returns a topological order.
    pub fn toposort(&self) -> Result<Vec<usize>, String> {
        let n = self.tasks.len();
        let mut indeg = vec![0usize; n];
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                if d >= n {
                    return Err(format!("task {i} depends on unknown task {d}"));
                }
                if d == i {
                    return Err(format!("task {i} depends on itself"));
                }
                indeg[i] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                dependents[d].push(i);
            }
        }
        while let Some(i) = queue.pop() {
            order.push(i);
            for &j in &dependents[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if order.len() != n {
            return Err("workflow contains a dependency cycle".to_string());
        }
        Ok(order)
    }
}

/// Forecast of one task.
#[derive(Clone, Debug)]
pub struct TaskForecast {
    /// Task label.
    pub name: String,
    /// Predicted start time, seconds.
    pub start: f64,
    /// Predicted completion time, seconds; infinite if the task fails
    /// (a dead link on its route, or upstream of it).
    pub finish: f64,
}

/// Forecast of a whole workflow.
#[derive(Clone, Debug)]
pub struct WorkflowForecast {
    /// Per-task forecasts, in workflow order.
    pub tasks: Vec<TaskForecast>,
    /// Completion time of the last task, seconds.
    pub makespan: f64,
}

impl WorkflowForecast {
    /// JSON rendering: `{"makespan": …, "tasks": [{"name", "start",
    /// "finish"}, …]}`.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("makespan", Value::from(self.makespan)),
            (
                "tasks",
                Value::Array(
                    self.tasks
                        .iter()
                        .map(|t| {
                            Value::object(vec![
                                ("name", Value::from(t.name.as_str())),
                                ("start", Value::from(t.start)),
                                ("finish", Value::from(t.finish)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Forecasts a workflow on `session`'s platform as it stands now — link
/// events applied, like every other forecast: every task contends for
/// networks and CPUs with its concurrently-running siblings, exactly
/// like the plain transfer forecasts. A task killed by a dead link, or
/// downstream of one, never completes: its `finish` (and the makespan)
/// is infinite, which renders as JSON `null`.
pub fn forecast(session: &Session, workflow: &Workflow) -> Result<WorkflowForecast, PnfsError> {
    workflow
        .toposort()
        .map_err(|_| PnfsError::Sim(simflow::SimError::Stalled { at: 0.0 }))?;
    // The kernel asserts on these; amounts arrive straight from a query
    // string.
    let amount = |x: f64| {
        if x.is_finite() && x >= 0.0 {
            Ok(x)
        } else {
            Err(PnfsError::BadSize(x))
        }
    };

    let mut sim = session.simulation();
    let mut ids = Vec::with_capacity(workflow.tasks.len());
    for t in &workflow.tasks {
        let id = match &t.kind {
            TaskKind::Transfer { src, dst, bytes } => {
                let (s, d) = (session.host(src)?, session.host(dst)?);
                sim.add_transfer_at(s, d, amount(*bytes)?, SimTime::ZERO)?
            }
            TaskKind::Compute { host, flops } => {
                sim.add_compute_at(session.host(host)?, amount(*flops)?, SimTime::ZERO)
            }
        };
        ids.push(id);
    }
    for (i, t) in workflow.tasks.iter().enumerate() {
        let deps: Vec<simflow::WorkId> = t.deps.iter().map(|&d| ids[d]).collect();
        if !deps.is_empty() {
            sim.add_dependencies(ids[i], &deps);
        }
    }
    let report = sim.run()?;
    session.kernel_metrics().observe(&report.stats);
    let tasks: Vec<TaskForecast> = workflow
        .tasks
        .iter()
        .zip(&ids)
        .map(|(t, id)| {
            let c = report.completion(*id);
            TaskForecast {
                name: t.name.clone(),
                start: c.start.as_secs(),
                finish: if c.failed() { f64::INFINITY } else { c.finish.as_secs() },
            }
        })
        .collect();
    let makespan = tasks.iter().map(|t| t.finish).fold(0.0, f64::max);
    Ok(WorkflowForecast { tasks, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use g5k::{synth, to_simflow, Flavor};
    use simflow::NetworkConfig;
    use std::sync::Arc;

    fn session() -> Session {
        let platform = Arc::new(to_simflow(&synth::standard(), Flavor::G5kTest));
        Session::new(platform, NetworkConfig::ideal())
    }

    const A: &str = "sagittaire-1.lyon.grid5000.fr";
    const B: &str = "sagittaire-2.lyon.grid5000.fr";

    #[test]
    fn scatter_compute_gather() {
        // the paper's motivating scenario: ship data, compute, ship back
        let p = session();
        let mut w = Workflow::new();
        let up = w.add(
            "upload",
            TaskKind::Transfer { src: A.into(), dst: B.into(), bytes: 1.25e8 },
            &[],
        );
        let c = w.add(
            "solve",
            TaskKind::Compute { host: B.into(), flops: 4.8e9 },
            &[up],
        );
        let down = w.add(
            "download",
            TaskKind::Transfer { src: B.into(), dst: A.into(), bytes: 1.25e7 },
            &[c],
        );
        let f = forecast(&p, &w).unwrap();
        assert_eq!(f.tasks.len(), 3);
        // upload: 125 MB at 125 MB/s ≈ 1 s; solve: 4.8 Gflop at 4.8 Gflop/s
        // = 1 s; download ≈ 0.1 s ⇒ makespan ≈ 2.1 s
        assert!((f.makespan - 2.1).abs() < 0.05, "{}", f.makespan);
        assert!(f.tasks[c].start >= f.tasks[up].finish - 1e-9);
        assert!(f.tasks[down].start >= f.tasks[c].finish - 1e-9);
    }

    #[test]
    fn independent_tasks_run_concurrently() {
        let p = session();
        let mut w = Workflow::new();
        w.add("t1", TaskKind::Transfer { src: A.into(), dst: B.into(), bytes: 1.25e8 }, &[]);
        w.add(
            "c1",
            TaskKind::Compute { host: "sagittaire-3.lyon.grid5000.fr".into(), flops: 4.8e9 },
            &[],
        );
        let f = forecast(&p, &w).unwrap();
        // both ≈ 1 s, overlapped
        assert!(f.makespan < 1.5, "{}", f.makespan);
    }

    #[test]
    fn is_it_worth_moving_the_data() {
        // the paper's §I question: move 1 TB to a faster cluster to save
        // 2 h of compute time? Answer by forecasting both workflows.
        let p = session();
        let slow_host = A; // 4.8 Gflop/s
        let fast_host = "graphene-1.nancy.grid5000.fr"; // 10 Gflop/s
        let work = 3.456e13; // 2 h on the slow host

        let mut local = Workflow::new();
        local.add("compute", TaskKind::Compute { host: slow_host.into(), flops: work }, &[]);
        let local_f = forecast(&p, &local).unwrap();

        let mut remote = Workflow::new();
        let mv = remote.add(
            "move 1TB",
            TaskKind::Transfer { src: slow_host.into(), dst: fast_host.into(), bytes: 1e12 },
            &[],
        );
        remote.add("compute", TaskKind::Compute { host: fast_host.into(), flops: work }, &[mv]);
        let remote_f = forecast(&p, &remote).unwrap();

        // moving 1 TB over a gigabit NIC takes ≈ 8000 s; the compute gain
        // is 7200 − 3456 ≈ 3744 s: not worth it, exactly the paper's point
        assert!(local_f.makespan < remote_f.makespan);
    }

    #[test]
    fn cycles_are_rejected() {
        let mut w = Workflow::new();
        w.add("a", TaskKind::Compute { host: A.into(), flops: 1.0 }, &[1]);
        w.add("b", TaskKind::Compute { host: A.into(), flops: 1.0 }, &[0]);
        assert!(w.toposort().is_err());
        assert!(forecast(&session(), &w).is_err());
    }

    #[test]
    fn unknown_host_is_reported() {
        let mut w = Workflow::new();
        w.add("a", TaskKind::Compute { host: "ghost".into(), flops: 1.0 }, &[]);
        assert!(matches!(
            forecast(&session(), &w),
            Err(PnfsError::UnknownHost(_))
        ));
    }

    #[test]
    fn forecast_json_shape() {
        let p = session();
        let mut w = Workflow::new();
        w.add("only", TaskKind::Compute { host: A.into(), flops: 4.8e9 }, &[]);
        let f = forecast(&p, &w).unwrap();
        let json = f.to_json();
        assert_eq!(json["tasks"][0]["name"].as_str(), Some("only"));
        assert!(json["makespan"].as_f64().unwrap() > 0.9);
    }
}
