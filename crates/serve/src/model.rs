//! Model loading and dispatch for the serving layer.
//!
//! [`ServeModel`] wraps any model the CLI toolchain can produce — a
//! binary classifier, a multiclass container, or an ε-SVR — behind one
//! `predict_batch` entry point. Dispatch mirrors `svm-predict` exactly
//! (container header → multiclass, `svm_type epsilon_svr` → regression,
//! otherwise binary), and models are always evaluated in `f64` like the
//! CLI does, so served predictions are bit-identical to offline ones.
//!
//! A linear (sub)model's normal vector `w = Σᵢ coefᵢ·svᵢ` is folded once
//! per load with the same [`linear_w`] the CLI's prediction uses, so each
//! batch costs O(d) per row and still equals `svm-predict` bit for bit.

use plssvm_core::kernel::linear_w;
use plssvm_core::multiclass::MultiClassModel;
use plssvm_core::predict_decision_values;
use plssvm_core::regression::predict_values;
use plssvm_core::simd::Isa;
use plssvm_core::svm::{predict_linear, validate_query_batch};
use plssvm_data::dense::DenseMatrix;
use plssvm_data::model::{peek_svm_type, KernelSpec, SvmModel, SvrModel};

/// One served prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prediction {
    /// A class label (multiclass models).
    Label(i32),
    /// A class label plus the raw decision value (binary models).
    LabelWithDecision(i32, f64),
    /// A regression value (SVR models).
    Value(f64),
}

/// A loaded model of any kind the CLI can produce, ready to serve.
#[derive(Debug, Clone)]
pub struct ServeModel {
    kind: Kind,
    /// The folded `w` of each binary model (one entry for binary and SVR
    /// models); `None` for non-linear kernels.
    linear_w: Vec<Option<Vec<f64>>>,
}

#[derive(Debug, Clone)]
enum Kind {
    /// A binary LS-SVM classifier.
    Binary(SvmModel<f64>),
    /// A multiclass container (one-vs-one or one-vs-rest).
    Multiclass(MultiClassModel<f64>),
    /// An ε-SVR regression model.
    Svr(SvrModel<f64>),
}

/// `w = Σᵢ coefᵢ·svᵢ` for a linear kernel, `None` otherwise.
fn fold_w(kernel: &KernelSpec<f64>, sv: &DenseMatrix<f64>, coef: &[f64]) -> Option<Vec<f64>> {
    matches!(kernel, KernelSpec::Linear).then(|| linear_w(Isa::select(), sv, coef))
}

impl ServeModel {
    /// Parses a model from its text representation, dispatching on the
    /// model kind the same way `svm-predict` does.
    pub fn from_text(content: &str) -> Result<Self, String> {
        let kind = if content.starts_with("plssvm_multiclass") {
            Kind::Multiclass(
                MultiClassModel::<f64>::from_container_string(content)
                    .map_err(|e| format!("multiclass model: {e}"))?,
            )
        } else if peek_svm_type(content) == Some("epsilon_svr") {
            Kind::Svr(
                SvrModel::<f64>::from_model_string(content)
                    .map_err(|e| format!("svr model: {e}"))?,
            )
        } else {
            Kind::Binary(
                SvmModel::<f64>::from_model_string(content).map_err(|e| format!("model: {e}"))?,
            )
        };
        let linear_w = match &kind {
            Kind::Binary(m) => vec![fold_w(&m.kernel, &m.sv, &m.coef)],
            Kind::Multiclass(m) => m
                .models
                .iter()
                .map(|(_, m)| fold_w(&m.kernel, &m.sv, &m.coef))
                .collect(),
            Kind::Svr(m) => vec![fold_w(&m.kernel, &m.sv, &m.coef)],
        };
        let model = Self { kind, linear_w };
        if model.features() == 0 {
            return Err("model has zero features".into());
        }
        if model.total_sv() == 0 {
            return Err("model has no support vectors".into());
        }
        Ok(model)
    }

    /// Loads and validates a model file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        Self::load_with(&plssvm_data::RealVfs, path.as_ref())
    }

    /// [`ServeModel::load`] through an explicit
    /// [`Vfs`](plssvm_data::vfs::Vfs), so reload harnesses can inject
    /// torn/short reads and bit rot at the loader. Damage surfaces as a
    /// structured rejection (parse/validation failure), never a panic.
    pub fn load_with(
        vfs: &dyn plssvm_data::vfs::Vfs,
        path: &std::path::Path,
    ) -> Result<Self, String> {
        let content = vfs
            .read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_text(&content)
    }

    /// Expected number of features per query row.
    pub fn features(&self) -> usize {
        match &self.kind {
            Kind::Binary(m) => m.features(),
            Kind::Multiclass(m) => m.models.first().map(|(_, m)| m.features()).unwrap_or(0),
            Kind::Svr(m) => m.features(),
        }
    }

    /// Total number of support vectors (summed over binary submodels).
    pub fn total_sv(&self) -> usize {
        match &self.kind {
            Kind::Binary(m) => m.total_sv(),
            Kind::Multiclass(m) => m.models.iter().map(|(_, m)| m.total_sv()).sum(),
            Kind::Svr(m) => m.total_sv(),
        }
    }

    /// Human-readable model kind for status messages.
    pub fn kind(&self) -> &'static str {
        match &self.kind {
            Kind::Binary(_) => "binary",
            Kind::Multiclass(_) => "multiclass",
            Kind::Svr(_) => "svr",
        }
    }

    /// Predicts one dense batch, returning a structured error (never
    /// panicking) on degenerate batches. Linear models score through
    /// their folded `w`, the others through the kernel sweep.
    pub fn predict_batch(&self, x: &DenseMatrix<f64>) -> Result<Vec<Prediction>, String> {
        validate_query_batch(self.features(), x).map_err(|e| e.to_string())?;
        Ok(match &self.kind {
            Kind::Binary(m) => self
                .scores(0, m.bias(), x, || predict_decision_values(m, x))
                .into_iter()
                .map(|d| Prediction::LabelWithDecision(m.decide(d), d))
                .collect(),
            Kind::Multiclass(m) => {
                let decisions: Vec<Vec<f64>> = m
                    .models
                    .iter()
                    .enumerate()
                    .map(|(i, (_, sub))| {
                        self.scores(i, sub.bias(), x, || predict_decision_values(sub, x))
                    })
                    .collect();
                m.vote(&decisions)
                    .into_iter()
                    .map(Prediction::Label)
                    .collect()
            }
            Kind::Svr(m) => self
                .scores(0, m.bias(), x, || predict_values(m, x))
                .into_iter()
                .map(Prediction::Value)
                .collect(),
        })
    }

    /// Decision values of binary model `i`: through its folded `w` when
    /// linear, otherwise `sweep`.
    fn scores(
        &self,
        i: usize,
        bias: f64,
        x: &DenseMatrix<f64>,
        sweep: impl FnOnce() -> Vec<f64>,
    ) -> Vec<f64> {
        match &self.linear_w[i] {
            Some(w) => predict_linear(w, bias, x),
            None => sweep(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BINARY: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 1:1\n-1 2:1\n";
    const SVR: &str =
        "svm_type epsilon_svr\nkernel_type linear\nnr_class 2\ntotal_sv 1\nrho -1\nSV\n2 1:1 2:0\n";

    #[test]
    fn dispatches_binary_and_predicts_with_decision() {
        let m = ServeModel::from_text(BINARY).unwrap();
        assert_eq!(m.kind(), "binary");
        assert_eq!(m.features(), 2);
        // f(x) = x1 - x2
        let x = DenseMatrix::from_vec(2, 2, vec![3.0, 1.0, 0.0, 5.0]);
        let p = m.predict_batch(&x).unwrap();
        assert_eq!(
            p,
            vec![
                Prediction::LabelWithDecision(1, 2.0),
                Prediction::LabelWithDecision(-1, -5.0)
            ]
        );
    }

    #[test]
    fn dispatches_svr_and_predicts_values() {
        let m = ServeModel::from_text(SVR).unwrap();
        assert_eq!(m.kind(), "svr");
        // f(x) = 2·x1 + 1
        let x = DenseMatrix::from_vec(1, 2, vec![3.0, 9.0]);
        assert_eq!(m.predict_batch(&x).unwrap(), vec![Prediction::Value(7.0)]);
    }

    #[test]
    fn dispatches_multiclass_container() {
        use plssvm_core::prelude::*;
        use plssvm_data::synthetic::{generate_blobs, BlobsConfig};

        let data = generate_blobs::<f64>(&BlobsConfig::new(30, 4, 3, 5)).unwrap();
        let trained = train_multiclass(
            &data,
            &LsSvm::new().with_epsilon(1e-6),
            MultiClassStrategy::OneVsOne,
        )
        .unwrap();
        let m = ServeModel::from_text(&trained.to_container_string()).unwrap();
        assert_eq!(m.kind(), "multiclass");
        assert_eq!(m.features(), 4);
        let x = data.x.select_rows(&[0, 1]);
        let served = m.predict_batch(&x).unwrap();
        let direct = trained.predict(&x);
        let served_labels: Vec<i32> = served
            .iter()
            .map(|p| match p {
                Prediction::Label(l) => *l,
                other => panic!("multiclass must serve labels, got {other:?}"),
            })
            .collect();
        assert_eq!(served_labels, direct);
    }

    #[test]
    fn degenerate_batches_are_structured_errors() {
        let m = ServeModel::from_text(BINARY).unwrap();
        let empty = DenseMatrix::<f64>::zeros(0, 2);
        assert!(m.predict_batch(&empty).unwrap_err().contains("empty"));
        let wrong = DenseMatrix::<f64>::zeros(1, 3);
        assert!(m.predict_batch(&wrong).unwrap_err().contains("expects 2"));
    }

    #[test]
    fn garbage_model_text_is_rejected() {
        assert!(ServeModel::from_text("not a model").is_err());
        assert!(ServeModel::from_text("").is_err());
        // truncated mid-header
        assert!(ServeModel::from_text("svm_type c_svc\nkernel_type linear\n").is_err());
    }
}
