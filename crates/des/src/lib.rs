//! # dgsched-des — discrete-event simulation kernel
//!
//! The simulation substrate for the desktop-grid scheduling study: a
//! monomorphised event loop ([`engine::Engine`]) over a 4-ary-heap
//! pending-event set ([`queue::BinaryHeapQueue`], property-tested against
//! the eager [`queue::BTreeQueue`]), deterministic named RNG streams
//! ([`rng::StreamSeeder`]), declarative random variates
//! ([`dist::DistConfig`]) and the replication statistics ([`stats`]):
//! streaming moments, confidence intervals, stopping rules and
//! time-weighted signals.
//!
//! The kernel is domain-agnostic: it knows nothing about machines, bags or
//! schedulers. Higher crates define their event enum and drive it through
//! [`engine::Handler`].
//!
//! ## Example
//!
//! ```
//! use dgsched_des::engine::{Control, Engine, Handler, Scheduler};
//! use dgsched_des::time::SimTime;
//!
//! struct Ping(u32);
//! impl Handler<u32> for Ping {
//!     fn handle(&mut self, n: u32, sched: &mut Scheduler<'_, u32>) -> Control {
//!         self.0 += n;
//!         if n < 3 { sched.schedule_in(1.0, n + 1); }
//!         Control::Continue
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.prime(SimTime::ZERO, 1);
//! let mut h = Ping(0);
//! engine.run(&mut h);
//! assert_eq!(h.0, 1 + 2 + 3);
//! assert_eq!(engine.now().as_secs(), 2.0);
//! ```

#![warn(missing_docs)]

pub mod dist;
pub mod engine;
pub mod event;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
