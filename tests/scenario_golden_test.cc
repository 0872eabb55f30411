// Golden end-to-end scenario matrix: a fixed-seed cross-product of
//   {selector: all / random / Bernoulli}
// x {sampler:  uniform / antithetic / stratified / truncated}
// x {solver:   ALS / CCD++}
// x {noise:    clean / noisy-label}
// over a small synthetic game, with checked-in golden FedSV and ComFedSV
// values — so future refactors cannot silently move paper-facing numbers.
//
// Tolerance policy (the "exact vs documented tolerance" split):
//   * FedSV values are compared EXACTLY (EXPECT_EQ on the doubles). The
//     scenario uses a quadratic fixture model with a uniform-draw
//     parameter init, so the whole FedSV path — training, selection,
//     permutation sampling, utility evaluation — is pure IEEE +-*/
//     arithmetic with no libm transcendentals, which is bit-stable
//     across conforming toolchains (x86-64 baseline has no FMA
//     contraction).
//   * ComFedSV values are compared to a relative tolerance of 1e-9: the
//     completion solve's random factor init draws Gaussians through
//     Box–Muller (libm log/sin/cos), whose last-ulp behavior may vary
//     across C libraries. Any real regression moves the values by
//     orders of magnitude more than 1e-9.
//
// Regenerating goldens (after an *intentional* numerics change): run
//   COMFEDSV_GOLDEN_REGEN=1 ./scenario_golden_test
// and paste the emitted table over kGolden below. The regen run skips
// the comparisons.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/pipeline.h"
#include "data/noise.h"

namespace comfedsv {
namespace {

constexpr int kNumClients = 4;
constexpr int kDim = 5;
constexpr int kClasses = 3;
constexpr int kRounds = 3;

// Quadratic one-vs-all least-squares classifier: Loss and gradient are
// polynomials in the parameters and data, so the model contributes no
// libm calls (see the tolerance policy above). Parameters are laid out
// as kClasses rows of [w (kDim) | b].
class QuadraticModel : public Model {
 public:
  size_t num_params() const override {
    return static_cast<size_t>(kClasses) * (kDim + 1);
  }
  size_t input_dim() const override { return kDim; }
  int num_classes() const override { return kClasses; }
  std::string name() const override { return "quadratic"; }

  double Loss(const Vector& params, const Dataset& data) const override {
    double total = 0.0;
    for (size_t i = 0; i < data.num_samples(); ++i) {
      const double* x = data.sample(i);
      for (int c = 0; c < kClasses; ++c) {
        const double err = Score(params, c, x) -
                           (data.label(i) == c ? 1.0 : 0.0);
        total += err * err;
      }
    }
    return total / static_cast<double>(data.num_samples());
  }

  double LossAndGradient(const Vector& params, const Dataset& data,
                         Vector* grad) const override {
    grad->Resize(num_params());
    grad->Fill(0.0);
    double total = 0.0;
    const double scale = 2.0 / static_cast<double>(data.num_samples());
    for (size_t i = 0; i < data.num_samples(); ++i) {
      const double* x = data.sample(i);
      for (int c = 0; c < kClasses; ++c) {
        const double err = Score(params, c, x) -
                           (data.label(i) == c ? 1.0 : 0.0);
        total += err * err;
        double* g = grad->data() + c * (kDim + 1);
        for (int j = 0; j < kDim; ++j) g[j] += scale * err * x[j];
        g[kDim] += scale * err;
      }
    }
    return total / static_cast<double>(data.num_samples());
  }

  int Predict(const Vector& params, const double* x) const override {
    int best = 0;
    double best_score = Score(params, 0, x);
    for (int c = 1; c < kClasses; ++c) {
      const double s = Score(params, c, x);
      if (s > best_score) {
        best_score = s;
        best = c;
      }
    }
    return best;
  }

  // Uniform draws only — the default init's Box–Muller would pull libm
  // transcendentals into the otherwise arithmetic-pure FedSV path.
  void InitializeParams(Vector* params, Rng* rng,
                        double scale = 0.05) const override {
    params->Resize(num_params());
    for (size_t i = 0; i < params->size(); ++i) {
      (*params)[i] = rng->NextDouble(-scale, scale);
    }
  }

 private:
  static double Score(const Vector& params, int c, const double* x) {
    const double* row = params.data() + c * (kDim + 1);
    double s = row[kDim];
    for (int j = 0; j < kDim; ++j) s += row[j] * x[j];
    return s;
  }
};

// Synthetic game data: uniform features (no libm), labels a fixed
// arithmetic function of the features, heterogeneous client sizes.
Dataset MakeClientData(int client, bool noisy, Rng* rng) {
  const size_t samples = 10 + 2 * client;
  Matrix feats(samples, kDim);
  std::vector<int> labels(samples);
  for (size_t i = 0; i < samples; ++i) {
    double sum = 0.0;
    for (int j = 0; j < kDim; ++j) {
      feats(i, j) = rng->NextDouble(-1.0, 1.0);
      sum += feats(i, j);
    }
    labels[i] = static_cast<int>(rng->NextUint64(kClasses));
    if (sum > 0.5) labels[i] = 0;  // learnable structure
  }
  Dataset d(std::move(feats), std::move(labels), kClasses);
  if (noisy && client == 0) {
    // The noisy-label scenario corrupts client 0 (30% flips, Fig. 7's
    // rate) — enough to move both metrics' value of that client.
    Rng flip_rng(rng->NextUint64());
    FlipLabels(&d, 0.3, &flip_rng);
  }
  return d;
}

struct Scenario {
  const char* selector;
  const char* sampler;
  const char* solver;
  const char* noise;
};

std::string ScenarioKey(const Scenario& s) {
  return std::string(s.selector) + "/" + s.sampler + "/" + s.solver + "/" +
         s.noise;
}

struct ScenarioResult {
  std::vector<double> fedsv;
  std::vector<double> comfedsv;
};

// `attack` (nullptr = honest) injects one adversarial client into the
// run. The adversarial cells stay on the exact-FedSV tolerance policy:
// free-rider uses camouflage 0 (the Gaussian camouflage path is the one
// libm-dependent adversary ingredient), gradient-scaler is pure IEEE
// arithmetic, and label-flip draws flip positions through the integer
// Rng only.
ScenarioResult RunScenario(const Scenario& s,
                           const char* attack = nullptr) {
  QuadraticModel model;
  Rng data_rng(20240731);
  const bool noisy = std::string(s.noise) == "noisy";
  std::vector<Dataset> clients;
  for (int i = 0; i < kNumClients; ++i) {
    clients.push_back(MakeClientData(i, noisy, &data_rng));
  }
  Rng test_rng(424242);
  Dataset test = MakeClientData(/*client=*/5, /*noisy=*/false, &test_rng);

  FedAvgConfig fed_cfg;
  fed_cfg.num_rounds = kRounds;
  fed_cfg.local_steps = 2;
  fed_cfg.lr = LearningRateSchedule::Constant(0.05);
  fed_cfg.select_all_first_round = true;
  fed_cfg.seed = 1001;
  const std::string selector = s.selector;
  if (selector == "all") {
    fed_cfg.selector = SelectorKind::kUniform;
    fed_cfg.clients_per_round = kNumClients;
  } else if (selector == "random") {
    fed_cfg.selector = SelectorKind::kUniform;
    fed_cfg.clients_per_round = 2;
  } else {
    fed_cfg.selector = SelectorKind::kBernoulli;
    fed_cfg.participation_prob = 0.6;
  }

  if (attack != nullptr) {
    AdversarySpec spec;
    spec.client = 1;
    const std::string kind = attack;
    if (kind == "free_rider") {
      spec.kind = AdversaryKind::kFreeRider;
      spec.intensity = 1.0;
      spec.camouflage = 0.0;  // keep the FedSV path libm-free
    } else if (kind == "grad_scaler") {
      spec.kind = AdversaryKind::kGradientScaler;
      spec.intensity = 8.0;
    } else {
      COMFEDSV_CHECK(kind == "label_flip");
      spec.kind = AdversaryKind::kLabelFlipper;
      spec.intensity = 0.4;
    }
    fed_cfg.adversary.specs.push_back(spec);
    fed_cfg.adversary.seed = 7007;
  }

  SamplerConfig sampler;
  const std::string sampler_name = s.sampler;
  sampler.kind = sampler_name == "antithetic" ? SamplerKind::kAntithetic
                 : sampler_name == "stratified"
                     ? SamplerKind::kStratified
                 : sampler_name == "truncated" ? SamplerKind::kTruncated
                                               : SamplerKind::kUniformIid;
  sampler.truncation_tolerance = 0.01;

  ValuationRequest request;
  request.compute_fedsv = true;
  request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  request.fedsv.permutations_per_round = 6;
  request.fedsv.sampler = sampler;
  request.fedsv.seed = 2002;
  request.compute_comfedsv = true;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 6;
  request.comfedsv.sampler = sampler;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.completion.lambda = 1e-3;
  request.comfedsv.completion.max_iters = 25;
  const std::string solver = s.solver;
  request.comfedsv.completion.solver =
      solver == "ccd" ? CompletionSolver::kCcd : CompletionSolver::kAls;
  request.comfedsv.completion.seed = 3003;
  request.comfedsv.seed = 4004;

  Result<ValuationOutcome> run =
      RunValuation(model, clients, test, fed_cfg, request);
  COMFEDSV_CHECK_OK(run.status());
  ScenarioResult out;
  const ValuationOutcome& outcome = run.value();
  COMFEDSV_CHECK(outcome.fedsv_values.has_value());
  COMFEDSV_CHECK(outcome.comfedsv.has_value());
  for (int i = 0; i < kNumClients; ++i) {
    out.fedsv.push_back((*outcome.fedsv_values)[i]);
    out.comfedsv.push_back(outcome.comfedsv->values[i]);
  }
  return out;
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;
  for (const char* selector : {"all", "random", "bernoulli"}) {
    for (const char* sampler :
         {"uniform", "antithetic", "stratified", "truncated"}) {
      for (const char* solver : {"als", "ccd"}) {
        for (const char* noise : {"clean", "noisy"}) {
          scenarios.push_back({selector, sampler, solver, noise});
        }
      }
    }
  }
  return scenarios;
}

struct GoldenRow {
  const char* key;
  double fedsv[kNumClients];
  double comfedsv[kNumClients];
};

// Generated with COMFEDSV_GOLDEN_REGEN=1 (see the file header). Values
// are %.17g, which round-trips doubles exactly.
constexpr GoldenRow kGolden[] = {
    // COMFEDSV_GOLDEN_TABLE_BEGIN
    {"all/uniform/als/clean",
     {0.069541535250595365, 0.050246066953785543, 0.093169729814349414, 0.074484780373922824},
     {0.054229583258891823, 0.15400502366860158, 0.011508462021121869, 0.067566747449340631}},
    {"all/uniform/als/noisy",
     {0.057230496073435361, 0.046451547145840114, 0.045909176362861841, 0.11123676167263169},
     {0.034465173734923284, 0.14266183272143676, -0.014562843108892035, 0.098168224124771067}},
    {"all/uniform/ccd/clean",
     {0.069541535250595365, 0.050246066953785543, 0.093169729814349414, 0.074484780373922824},
     {0.054221261251013321, 0.15398227609442255, 0.011506627069445894, 0.067555373446600217}},
    {"all/uniform/ccd/noisy",
     {0.057230496073435361, 0.046451547145840114, 0.045909176362861841, 0.11123676167263169},
     {0.03445930688202526, 0.14263771820167054, -0.01456039685125122, 0.098151650879118438}},
    {"all/antithetic/als/clean",
     {0.04194362535486057, 0.069283339474825983, 0.10946937036476299, 0.066745777198203585},
     {0.051506534218419386, 0.10408354513040141, 0.10842253990364825, 0.02326253917127287}},
    {"all/antithetic/als/noisy",
     {0.03462653400355914, 0.065813570338502131, 0.059116764142337512, 0.10127111277037021},
     {0.04032266570893818, 0.10216647093450983, 0.059094723168063697, 0.059077168695873705}},
    {"all/antithetic/ccd/clean",
     {0.04194362535486057, 0.069283339474825983, 0.10946937036476299, 0.066745777198203585},
     {0.051502305293114933, 0.1040758144461289, 0.10841283017536285, 0.02325980421685115}},
    {"all/antithetic/ccd/noisy",
     {0.03462653400355914, 0.065813570338502131, 0.059116764142337512, 0.10127111277037021},
     {0.040318232020992724, 0.10215618491607839, 0.059088240325235721, 0.059071479911512716}},
    {"all/stratified/als/clean",
     {0.088130498005620297, 0.097112567928445387, 0.071070114393512129, 0.031128932065075332},
     {0.092067910326611282, 0.10368318206123042, 0.065988724716145836, 0.025548153813252844}},
    {"all/stratified/als/noisy",
     {0.075666883531535806, 0.092274087909746741, 0.027652486522153963, 0.065234523291332502},
     {0.080701024704841612, 0.10337222939311977, 0.020959636793811964, 0.055605167467643192}},
    {"all/stratified/ccd/clean",
     {0.088130498005620297, 0.097112567928445387, 0.071070114393512129, 0.031128932065075332},
     {0.092060007407904904, 0.10367306118868427, 0.065982928638811736, 0.025546623836889399}},
    {"all/stratified/ccd/noisy",
     {0.075666883531535806, 0.092274087909746741, 0.027652486522153963, 0.065234523291332502},
     {0.080692602235023003, 0.10336233086443636, 0.020957188102078673, 0.055600183011238154}},
    {"all/truncated/als/clean",
     {0.068166257563590293, 0.044588571988682858, 0.085240189280134854, 0.085881819581407018},
     {0.051185083207816708, 0.15644230503967516, 0.0038779641769675168, 0.075791661183929174}},
    {"all/truncated/als/noisy",
     {0.059551456301574525, 0.038731439639505962, 0.058270581535268817, 0.10585982790449994},
     {0.027537238604697672, 0.13978726064719316, 0, 0.093402393327971026}},
    {"all/truncated/ccd/clean",
     {0.068166257563590293, 0.044588571988682858, 0.085240189280134854, 0.085881819581407018},
     {0.051176826841587253, 0.1564196721510559, 0.0038775194093436474, 0.075779274532513721}},
    {"all/truncated/ccd/noisy",
     {0.059551456301574525, 0.038731439639505962, 0.058270581535268817, 0.10585982790449994},
     {0.027532401435635241, 0.13976310893708382, -4.6259292692714852e-17, 0.093386279089742244}},
    {"random/uniform/als/clean",
     {0.089599069606077178, 0.12774749191714457, 0.030378924119876489, 0.03892646858829564},
     {0.036419063477671321, 0.15170073355655478, 0.0095646453761266854, 0.034398356621462206}},
    {"random/uniform/als/noisy",
     {0.073614228617091382, 0.1213908770956648, 0.012299043704114054, 0.06208877981356508},
     {0.016492849507906752, 0.14118789077520438, -0.010348724939518789, 0.06505084272734668}},
    {"random/uniform/ccd/clean",
     {0.089599069606077178, 0.12774749191714457, 0.030378924119876489, 0.03892646858829564},
     {0.030773540630801611, 0.15194648887305184, 0.0095898952973149602, 0.041336169131261438}},
    {"random/uniform/ccd/noisy",
     {0.073614228617091382, 0.1213908770956648, 0.012299043704114054, 0.06208877981356508},
     {0.013077648113995375, 0.1412668373553147, -0.010285509614014518, 0.066228898464480823}},
    {"random/antithetic/als/clean",
     {0.055804988322688487, 0.11038899595972124, 0.054010772858310144, 0.066447197090674009},
     {0.039303023683410321, 0.10081912177699505, 0.067990071261408658, 0.004186018387579574}},
    {"random/antithetic/als/noisy",
     {0.044965559190199546, 0.10309463638620821, 0.030224206447488244, 0.091108527206539336},
     {0.029081750039461216, 0.098621284194616937, 0.036493769433779868, 0.034326684635479762}},
    {"random/antithetic/ccd/clean",
     {0.055804988322688487, 0.11038899595972124, 0.054010772858310144, 0.066447197090674009},
     {0.04478867877826135, 0.10122303409509065, 0.091707104558612307, 0.017467720236004743}},
    {"random/antithetic/ccd/noisy",
     {0.044965559190199546, 0.10309463638620821, 0.030224206447488244, 0.091108527206539336},
     {0.034256517712139854, 0.099530106078117436, 0.049385081493002282, 0.046229443415974077}},
    {"random/stratified/als/clean",
     {0.078092320022123574, 0.1342692899253132, 0.029905444602504362, 0.04438489968145274},
     {0.092691770784478503, 0.10042039232078399, 0.03845756921398491, -0.02004476745110343}},
    {"random/stratified/als/noisy",
     {0.065710857397962452, 0.12299976487422165, 0.01107709469908626, 0.069605212259164967},
     {0.079378733692518452, 0.099825562918965827, 0.0096768416810086196, 0.019812810697606716}},
    {"random/stratified/ccd/clean",
     {0.078092320022123574, 0.1342692899253132, 0.029905444602504362, 0.04438489968145274},
     {0.083348653540548656, 0.10080789440295131, 0.048697312740250888, 0.0075826131392356987}},
    {"random/stratified/ccd/noisy",
     {0.065710857397962452, 0.12299976487422165, 0.01107709469908626, 0.069605212259164967},
     {0.076142644333117418, 0.10039416447514117, 0.013608291672074019, 0.033441469428619294}},
    {"random/truncated/als/clean",
     {0.08940215915680523, 0.1243979993243465, 0.024888435999251002, 0.051988052119776841},
     {0.035731372556604774, 0.15419749144953787, 0.0026713439062333076, 0.038803870996205525}},
    {"random/truncated/als/noisy",
     {0.07510439909146005, 0.11501478993887018, 0.017743243912475316, 0.060364981001387666},
     {0.012483755902614774, 0.13934278404304651, 0, 0.061183143067984641}},
    {"random/truncated/ccd/clean",
     {0.08940215915680523, 0.1243979993243465, 0.024888435999251002, 0.051988052119776841},
     {0.030507957202814469, 0.15448912032909115, 0.0026587955423039754, 0.046163383660313251}},
    {"random/truncated/ccd/noisy",
     {0.07510439909146005, 0.11501478993887018, 0.017743243912475316, 0.060364981001387666},
     {0.0095682906711771851, 0.13943526174562934, -3.4503427634067586e-05, 0.061210442365627282}},
    {"bernoulli/uniform/als/clean",
     {0.12315008951812606, 0.0442902001362947, 0.075685452432870309, 0.045220278413524731},
     {0.051703633705813302, 0.11732285536823797, 0.0086176324253400497, 0.031459737101765195}},
    {"bernoulli/uniform/als/noisy",
     {0.1057264458096063, 0.044836902890636354, 0.037720208138437419, 0.074122042187331261},
     {0.03669138437549721, 0.10892932553205151, -0.0092740985980661224, 0.053982108199505496}},
    {"bernoulli/uniform/ccd/clean",
     {0.12315008951812606, 0.0442902001362947, 0.075685452432870309, 0.045220278413524731},
     {0.044221095114166942, 0.11800340954876276, 0.0092285241866108848, 0.05247390664367161}},
    {"bernoulli/uniform/ccd/noisy",
     {0.1057264458096063, 0.044836902890636354, 0.037720208138437419, 0.074122042187331261},
     {0.030336735274126662, 0.11128974777879333, -0.010038366217250886, 0.074425369853956758}},
    {"bernoulli/antithetic/als/clean",
     {0.069421719527674175, 0.074341489448059739, 0.090629039640819378, 0.053953771884262515},
     {0.038885793171043084, 0.092245322127417498, 0.10173450511587712, 0.010615714495634924}},
    {"bernoulli/antithetic/als/noisy",
     {0.05837588912193379, 0.074051895890358446, 0.04722097093847899, 0.082756843075240116},
     {0.026537656133690871, 0.0956505185673239, 0.052877628679818912, 0.043488244135293896}},
    {"bernoulli/antithetic/ccd/clean",
     {0.069421719527674175, 0.074341489448059739, 0.090629039640819378, 0.053953771884262515},
     {0.043560792828298368, 0.095547001082878474, 0.10303859336405241, 0.013836058004625049}},
    {"bernoulli/antithetic/ccd/noisy",
     {0.05837588912193379, 0.074051895890358446, 0.04722097093847899, 0.082756843075240116},
     {0.030917992207486485, 0.098094095575565143, 0.053484083849705266, 0.045581387830394574}},
    {"bernoulli/stratified/als/clean",
     {0.091709051227109262, 0.098221783413651703, 0.06652371138501359, 0.031891474475041239},
     {0.092880203340233281, 0.083565443909777784, 0.066268382550787763, -0.0040905469829873031}},
    {"bernoulli/stratified/als/noisy",
     {0.079121187329696696, 0.093957024378371889, 0.028073859190077006, 0.061253528127865754},
     {0.07143200262264407, 0.088169249502666927, 0.018922867594280184, 0.033170904801013701}},
    {"bernoulli/stratified/ccd/clean",
     {0.091709051227109262, 0.098221783413651703, 0.06652371138501359, 0.031891474475041239},
     {0.093064401379985146, 0.089054526127768791, 0.066177278192121575, 0.0036723298971386709}},
    {"bernoulli/stratified/ccd/noisy",
     {0.079121187329696696, 0.093957024378371889, 0.028073859190077006, 0.061253528127865754},
     {0.082011035892100126, 0.095170012082995026, 0.022310471994450388, 0.03709891399583877}},
    {"bernoulli/truncated/als/clean",
     {0.1231501057776101, 0.039241366105785803, 0.070194964312244826, 0.054939800638704253},
     {0.020782118473741413, 0.13916534351648902, 0.0026017359379495405, 0.062825119051256387}},
    {"bernoulli/truncated/als/noisy",
     {0.10699600379670098, 0.03688823237827317, 0.045923220126467726, 0.072990523963700496},
     {0.0025623807830961647, 0.13144576218749521, 0, 0.075417165972846978}},
    {"bernoulli/truncated/ccd/clean",
     {0.1231501057776101, 0.039241366105785803, 0.070194964312244826, 0.054939800638704253},
     {0.043597346726952847, 0.12047603145521091, 0.0025833714530361187, 0.057126751439017479}},
    {"bernoulli/truncated/ccd/noisy",
     {0.10699600379670098, 0.03688823237827317, 0.045923220126467726, 0.072990523963700496},
     {0.0040388711904488315, 0.13301061364179959, -1.5927208538305905e-05, 0.067408483990182899}},
    // COMFEDSV_GOLDEN_TABLE_END
};

// Adversarial golden cells: the honest base cell (all/uniform/als/clean)
// re-run with one attacking client (client 1) per attack kind. Checked
// in separately from the honest matrix so the attack layer cannot
// silently move detection-facing numbers either. Same tolerance policy
// as above: FedSV exact (all three attacks are libm-free — see
// RunScenario), ComFedSV to 1e-9 relative.
constexpr const char* kAdversarialAttacks[] = {"free_rider", "grad_scaler",
                                               "label_flip"};

struct AdversarialGoldenRow {
  const char* attack;
  double fedsv[kNumClients];
  double comfedsv[kNumClients];
};

constexpr AdversarialGoldenRow kAdversarialGolden[] = {
    // COMFEDSV_ADVERSARIAL_GOLDEN_TABLE_BEGIN
    {"free_rider",
     {0.10930272802749627, -0.085123119917020276, 0.1141167664714698, 0.098868560558722354},
     {0.14366478518947157, -0.041332792992165607, 0.033709354209335879, 0.10102639545693437}},
    {"grad_scaler",
     {0.10694785035575861, 0.20728475382724737, 0.040945766733776937, 0.028952723822437961},
     {0.22094433860921259, 0.14272966377526744, -0.016794017499468353, 0.03691330842605596}},
    {"label_flip",
     {0.077189258662472074, 0.030833143588298081, 0.094067200737007806, 0.074882418999899919},
     {0.069789058096651951, 0.12438709461920934, 0.013498136921511444, 0.069169317971802036}},
    // COMFEDSV_ADVERSARIAL_GOLDEN_TABLE_END
};

TEST(ScenarioGoldenTest, AdversarialCellsMatchCheckedInGoldens) {
  const Scenario base{"all", "uniform", "als", "clean"};

  if (std::getenv("COMFEDSV_GOLDEN_REGEN") != nullptr) {
    for (const char* attack : kAdversarialAttacks) {
      const ScenarioResult r = RunScenario(base, attack);
      std::printf("    {\"%s\",\n     {", attack);
      for (int i = 0; i < kNumClients; ++i) {
        std::printf("%s%.17g", i ? ", " : "", r.fedsv[i]);
      }
      std::printf("},\n     {");
      for (int i = 0; i < kNumClients; ++i) {
        std::printf("%s%.17g", i ? ", " : "", r.comfedsv[i]);
      }
      std::printf("}},\n");
    }
    GTEST_SKIP() << "golden regeneration run (adversarial table above)";
  }

  ASSERT_EQ(std::size(kAdversarialGolden), std::size(kAdversarialAttacks));
  for (size_t idx = 0; idx < std::size(kAdversarialAttacks); ++idx) {
    const char* attack = kAdversarialAttacks[idx];
    SCOPED_TRACE(attack);
    const AdversarialGoldenRow& golden = kAdversarialGolden[idx];
    ASSERT_EQ(std::string(attack), golden.attack)
        << "adversarial golden table order out of sync — regenerate";
    const ScenarioResult r = RunScenario(base, attack);
    for (int i = 0; i < kNumClients; ++i) {
      EXPECT_EQ(r.fedsv[i], golden.fedsv[i]) << "FedSV client " << i;
      const double tol =
          1e-9 * std::max(1.0, std::abs(golden.comfedsv[i]));
      EXPECT_NEAR(r.comfedsv[i], golden.comfedsv[i], tol)
          << "ComFedSV client " << i;
    }
  }
}

TEST(ScenarioGoldenTest, AdversarialCellsDivergeFromHonestBaseline) {
  // Sanity on the attack axis itself: each adversarial cell must move
  // the FedSV vector away from the honest base cell, i.e. every attack
  // is actually wired through the trainer.
  const Scenario base{"all", "uniform", "als", "clean"};
  const ScenarioResult honest = RunScenario(base);
  for (const char* attack : kAdversarialAttacks) {
    SCOPED_TRACE(attack);
    const ScenarioResult attacked = RunScenario(base, attack);
    bool any_difference = false;
    for (int i = 0; i < kNumClients; ++i) {
      if (honest.fedsv[i] != attacked.fedsv[i]) any_difference = true;
    }
    EXPECT_TRUE(any_difference)
        << "attack does not change the valuation at all";
  }
}

TEST(ScenarioGoldenTest, MatrixMatchesCheckedInGoldens) {
  const std::vector<Scenario> scenarios = AllScenarios();

  if (std::getenv("COMFEDSV_GOLDEN_REGEN") != nullptr) {
    for (const Scenario& s : scenarios) {
      const ScenarioResult r = RunScenario(s);
      std::printf("    {\"%s\",\n     {", ScenarioKey(s).c_str());
      for (int i = 0; i < kNumClients; ++i) {
        std::printf("%s%.17g", i ? ", " : "", r.fedsv[i]);
      }
      std::printf("},\n     {");
      for (int i = 0; i < kNumClients; ++i) {
        std::printf("%s%.17g", i ? ", " : "", r.comfedsv[i]);
      }
      std::printf("}},\n");
    }
    GTEST_SKIP() << "golden regeneration run (table printed above)";
  }

  ASSERT_EQ(std::size(kGolden), scenarios.size())
      << "golden table out of sync with the scenario axes — regenerate";

  for (size_t idx = 0; idx < scenarios.size(); ++idx) {
    const Scenario& s = scenarios[idx];
    SCOPED_TRACE(ScenarioKey(s));
    const GoldenRow& golden = kGolden[idx];
    ASSERT_EQ(ScenarioKey(s), golden.key)
        << "golden table order out of sync — regenerate";
    const ScenarioResult r = RunScenario(s);
    for (int i = 0; i < kNumClients; ++i) {
      // Exact: the FedSV path is libm-free (see file header).
      EXPECT_EQ(r.fedsv[i], golden.fedsv[i]) << "FedSV client " << i;
      // Documented tolerance: completion init draws via libm.
      const double tol =
          1e-9 * std::max(1.0, std::abs(golden.comfedsv[i]));
      EXPECT_NEAR(r.comfedsv[i], golden.comfedsv[i], tol)
          << "ComFedSV client " << i;
    }
  }
}

TEST(ScenarioGoldenTest, NoisyLabelClientLosesValue) {
  // Sanity on the noise axis itself (independent of the goldens): with
  // labels flipped on client 0, the clean-vs-noisy scenarios must
  // disagree, i.e. the axis is actually exercised.
  const ScenarioResult clean =
      RunScenario({"all", "uniform", "als", "clean"});
  const ScenarioResult noisy =
      RunScenario({"all", "uniform", "als", "noisy"});
  bool any_difference = false;
  for (int i = 0; i < kNumClients; ++i) {
    if (clean.fedsv[i] != noisy.fedsv[i]) any_difference = true;
  }
  EXPECT_TRUE(any_difference)
      << "noisy-label scenarios do not differ from clean ones";
}

}  // namespace
}  // namespace comfedsv
