//! # escra-workloads
//!
//! The workloads and applications of the paper's evaluation (§VI):
//!
//! * [`generators`] — the four request-rate shapes (Fixed 400 req/s,
//!   Exp λ=300, Burst 50+600, trace replay);
//! * [`trace`] — the deterministic synthetic Alibaba-style trace
//!   (56–548 req/s envelope, 10×-sped-up character);
//! * [`sysbench`] — the Fig. 2 CPU-saturation phase schedule;
//! * [`microservice`] — DAG models of the four benchmark applications
//!   with the paper's container counts (MediaMicroservice 32,
//!   HipsterShop 11, TrainTicket 68, Teastore 7);
//! * [`serverless`] — OpenWhisk invoker configuration and the
//!   ImageProcess / GridSearch action profiles;
//! * [`trace_workload`] — the normalized [`TraceWorkload`] form driving
//!   the trace-mega scenarios (one Distributed Container per traced
//!   app);
//! * [`azure_trace`] — loader for Azure-Functions-shaped CSVs
//!   (per-minute invocation counts + duration/memory percentiles);
//! * [`synthetic_trace`] — seeded synthetic app populations
//!   (steady/diurnal/bursty mixes) normalizing into the same form.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod azure_trace;
pub mod generators;
pub mod microservice;
pub mod serverless;
pub mod synthetic_trace;
pub mod sysbench;
pub mod trace;
pub mod trace_workload;

pub use azure_trace::{parse_azure_csv, AzureTraceError};
pub use generators::{RequestGenerator, WorkloadKind};
pub use microservice::{
    hipster_shop, media_microservice, paper_apps, teastore, train_ticket, MicroserviceApp,
    RequestClass, ServiceTier, ServiceTime,
};
pub use serverless::{
    grid_search_task, image_process, ActionProfile, GridSearchJob, OpenWhiskConfig,
};
pub use synthetic_trace::{
    mega_mix, synthetic_trace, AppClass, ArrivalShape, SyntheticTraceConfig,
};
pub use sysbench::{Phase, SysbenchLoad};
pub use trace::{alibaba_trace, alibaba_workload};
pub use trace_workload::{TraceApp, TraceWorkload};
