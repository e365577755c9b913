#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! From-scratch Gaussian-process regression for the MLCD / HeterBO
//! reproduction.
//!
//! The paper (Section III-C, "Prior function") follows the BO convention of
//! a Gaussian-Process prior over the unknown deployment → training-speed
//! function. The reproduction band notes "thin BO crates; nontrivial GP
//! implementation needed", so this crate implements the whole stack:
//!
//! * ARD kernels (squared-exponential, Matérn 3/2, Matérn 5/2) in
//!   [`kernel`];
//! * exact GP posterior via the Cholesky identities in [`model`];
//! * marginal-likelihood hyperparameter fitting with parallel multi-start
//!   Nelder–Mead in [`fit`];
//! * input/output scaling helpers in [`scale`].
//!
//! Matrices are one-row-per-profiling-observation, so exact `O(n³)` GP math
//! is the right tool — a BO run in the paper profiles at most a few dozen
//! deployments.
//!
//! # Quick example
//!
//! ```
//! use mlcd_gp::{GpModel, FitOptions, KernelFamily};
//!
//! // Noisy observations of y = sin(x).
//! let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 * 0.5]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
//! let gp = GpModel::fit(&xs, &ys, KernelFamily::Matern52, &FitOptions::default()).unwrap();
//!
//! let p = gp.predict(&[1.6]);
//! assert!((p.mean - 1.6f64.sin()).abs() < 0.15);
//! assert!(p.stddev() >= 0.0);
//! ```

pub mod fit;
pub mod kernel;
pub mod model;
pub mod scale;
pub mod workspace;

pub use fit::{FitCounters, FitOptions, FitScratch, FittedHyperparams, Likelihood, NlmlScratch};
pub use kernel::{ArdKernel, KernelFamily};
pub use model::{GpError, GpModel, Prediction, ScoreWorkspace};
pub use scale::{InputScaler, OutputScaler};
pub use workspace::DistanceWorkspace;
