import math

import numpy as np
import pytest

from netvax import (
    IC,
    LT,
    CityModel,
    WaxmanParams,
    assign_ic_probs,
    assign_lt_weights,
    generate_city,
    generate_er,
    generate_gaussian_waxman,
    load_city_dataset,
    validate,
    waxman_edge_prob,
)
from netvax.errors import FormatError, ModelMismatchError, ParameterError
from netvax.graph import Graph


class FixedDraws:
    """Stands in for a Generator, returning scripted uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out = self.values[:size]
        del self.values[:size]
        return np.array(out)


# --- Erdős–Rényi ---------------------------------------------------------


def test_er_p_zero_and_one():
    assert generate_er(5, 0.0, IC, 1).m == 0
    assert generate_er(3, 1.0, IC, 1).m == 6  # all ordered pairs


def test_er_bad_p():
    with pytest.raises(ParameterError):
        generate_er(5, 1.5, IC, 1)
    with pytest.raises(ParameterError):
        generate_er(-1, 0.5, IC, 1)


def test_er_edge_count_binomial_concentration():
    # each of N = n(n-1) ordered pairs tosses an independent p-coin
    n, p = 200, 0.05
    N = n * (n - 1)
    mean = N * p
    sigma = math.sqrt(N * p * (1 - p))
    for seed in range(50):
        m = generate_er(n, p, IC, seed).m
        assert abs(m - mean) < 4 * sigma


def test_er_deterministic():
    assert generate_er(30, 0.2, LT, 9) == generate_er(30, 0.2, LT, 9)


# --- Waxman probability ---------------------------------------------------


def test_waxman_prob_zero_distance_is_alpha():
    p = WaxmanParams(alpha=0.3, beta=0.7)
    assert waxman_edge_prob(0.0, p, 2.0) == 0.3


def test_waxman_prob_reference_point():
    # alpha=0.05, beta=0.5 at d = L gives alpha * e^-2
    p = WaxmanParams(alpha=0.05, beta=0.5)
    assert waxman_edge_prob(1.0, p, 1.0) == pytest.approx(0.05 * math.exp(-2.0), rel=1e-12)


def test_waxman_prob_monotone_decreasing():
    p = WaxmanParams(alpha=0.4, beta=0.3)
    vals = [waxman_edge_prob(d, p, 5.0) for d in (0.5, 1.5, 4.0)]
    assert vals[0] > vals[1] > vals[2]
    assert all(v < p.alpha for v in vals)


def test_waxman_prob_bad_inputs():
    p = WaxmanParams(alpha=0.4, beta=0.3)
    with pytest.raises(ParameterError):
        waxman_edge_prob(1.0, p, 0.0)
    with pytest.raises(ParameterError):
        waxman_edge_prob(-1.0, p, 1.0)
    with pytest.raises(ParameterError):
        WaxmanParams(alpha=0.0, beta=0.3)


# --- Gaussian Waxman ------------------------------------------------------


def test_gaussian_waxman_degenerate_variance_links_at_alpha():
    # variance -> 0 collapses all nodes onto the center (exactly, below float
    # resolution), so every pairwise distance is 0 and each unordered pair
    # links with probability alpha
    alpha = 0.3
    n = 40
    g = generate_gaussian_waxman(
        n, 1, WaxmanParams(alpha=alpha, beta=0.5), IC, 7, variance_range=(1e-40, 1e-40)
    )
    pairs = n * (n - 1) // 2
    mean = pairs * alpha
    sigma = math.sqrt(pairs * alpha * (1 - alpha))
    assert abs(g.m / 2 - mean) < 5 * sigma


def test_gaussian_waxman_lt_64_nodes_validates():
    g = generate_gaussian_waxman(64, 5, WaxmanParams(alpha=0.4, beta=0.2), LT, 3)
    assert g.n == 64
    assert validate(g).ok
    for j in range(g.n):
        assert sum(v for _, v in g.in_neighbors(j)) < 1.0


def test_gaussian_waxman_deterministic():
    p = WaxmanParams(alpha=0.4, beta=0.2)
    assert generate_gaussian_waxman(30, 3, p, IC, 11) == generate_gaussian_waxman(30, 3, p, IC, 11)


def test_gaussian_waxman_bad_centers():
    with pytest.raises(ParameterError):
        generate_gaussian_waxman(3, 5, WaxmanParams(0.4, 0.2), IC, 1)


def test_generated_graphs_validate_both_models():
    p = WaxmanParams(alpha=0.4, beta=0.3)
    for seed in range(100):
        model = LT if seed % 2 else IC
        if seed % 4 < 2:
            g = generate_er(24, 0.15, model, seed)
        else:
            g = generate_gaussian_waxman(24, 3, p, model, seed)
        assert validate(g).ok, f"seed {seed}"


def test_directed_pairs_come_together():
    g = generate_gaussian_waxman(40, 3, WaxmanParams(0.5, 0.5), IC, 2)
    pairs = {(s, d) for s, d, _ in g.edges}
    assert all((d, s) in pairs for s, d in pairs)


# --- weight assignment ----------------------------------------------------


def test_assign_lt_weights_rescales_to_099():
    g = Graph(3, [(0, 2, 0.0), (1, 2, 0.0)], LT)
    out = assign_lt_weights(g, FixedDraws([0.8, 0.7]))
    values = [v for _, _, v in out.edges]
    assert values == pytest.approx([0.528, 0.462], abs=1e-12)
    assert sum(values) == pytest.approx(0.99, abs=1e-12)


def test_assign_lt_weights_leaves_small_sums_alone():
    g = Graph(2, [(0, 1, 0.0)], LT)
    out = assign_lt_weights(g, FixedDraws([0.4]))
    assert out.edges[0][2] == 0.4


def test_assign_lt_weights_empty_graph():
    g = Graph(4, [], LT)
    assert assign_lt_weights(g, 1).edges == ()


def test_assign_lt_requires_lt():
    with pytest.raises(ModelMismatchError):
        assign_lt_weights(Graph(2, [(0, 1, 0.0)], IC), 1)


def test_assign_ic_probs_uniform_mean():
    chain = Graph(100_000 + 1, [(i, i + 1, 0.0) for i in range(100_000)], IC)
    vals = [v for _, _, v in assign_ic_probs(chain, 42).edges]
    assert 0.49 <= float(np.mean(vals)) <= 0.51
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_assign_ic_deterministic():
    g = Graph(5, [(0, 1, 0.0), (1, 2, 0.0), (3, 4, 0.0)], IC)
    assert assign_ic_probs(g, 5) == assign_ic_probs(g, 5)


# --- city datasets --------------------------------------------------------


def write_csv(tmp_path, text):
    p = tmp_path / "cities.csv"
    p.write_text(text)
    return p


def test_city_single_node_scaling(tmp_path):
    p = write_csv(tmp_path, "city,lat,lng,population,density\nMetropolis,40.0,-74.0,100000,5000\n")
    model = load_city_dataset(p, f=100_000, box_side=1.0)
    assert model.total_nodes == 1
    (center,) = model.centers
    assert center[2] == 1


def test_city_low_population_dropped(tmp_path):
    p = write_csv(
        tmp_path,
        "city,lat,lng,population,density\nBig,40.0,-74.0,200000,5000\nTiny,41.0,-75.0,10000,400\n",
    )
    model = load_city_dataset(p, f=100_000, box_side=1.0, min_nodes=1)
    assert len(model.centers) == 1
    assert model.total_nodes == 2


def test_city_sigma_follows_density_ratio(tmp_path):
    p = write_csv(
        tmp_path,
        "city,lat,lng,population,density\nDense,40.0,-74.0,100000,4000\nSparse,41.0,-75.0,100000,1000\n",
    )
    model = load_city_dataset(p, f=1000, box_side=1.0)
    sigmas = [c[3] for c in model.centers]
    assert sigmas[1] / sigmas[0] == pytest.approx(2.0, rel=1e-9)


def test_city_missing_column(tmp_path):
    p = write_csv(tmp_path, "city,lat,lng,population\nX,1,2,3\n")
    with pytest.raises(FormatError, match="density"):
        load_city_dataset(p, f=1, box_side=1.0)


def test_city_bad_number_reports_line(tmp_path):
    p = write_csv(
        tmp_path,
        "city,lat,lng,population,density\nGood,40.0,-74.0,1000,10\nBad,oops,-75.0,1000,10\n",
    )
    with pytest.raises(FormatError, match="line 3"):
        load_city_dataset(p, f=1, box_side=1.0)


def test_city_extra_columns_ignored(tmp_path):
    p = write_csv(
        tmp_path,
        "city,state,lat,lng,population,density\nX,NY,40.0,-74.0,5000,100\n",
    )
    model = load_city_dataset(p, f=1000, box_side=1.0)
    assert model.total_nodes == 5


def test_city_graph_generation(tmp_path):
    p = write_csv(
        tmp_path,
        "city,lat,lng,population,density\n"
        "A,40.0,-74.0,300000,5000\nB,41.5,-73.0,200000,2000\nC,40.8,-75.5,150000,8000\n",
    )
    model = load_city_dataset(p, f=10_000, box_side=1.0)
    assert model.total_nodes == sum(c[2] for c in model.centers)
    g = generate_city(model, WaxmanParams(alpha=0.4, beta=0.2), LT, 7)
    assert g.n == model.total_nodes
    assert validate(g).ok
    assert g.coords is not None


def test_city_sigma_normalized_to_box_fraction(tmp_path):
    p = write_csv(
        tmp_path,
        "city,lat,lng,population,density\nA,40.0,-74.0,300000,5000\nB,41.5,-73.0,100000,5000\n",
    )
    model = load_city_dataset(p, f=10_000, box_side=8.0)
    assert max(c[3] for c in model.centers) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(box_side=math.nan), "box_side"),
        (dict(box_side=math.inf), "box_side"),
        (dict(sigma_constant=math.nan), "sigma_constant"),
        (dict(sigma_constant=math.inf), "sigma_constant"),
        (dict(sigma_constant=-1.0), "sigma_constant"),
        (dict(f=math.nan), "scale factor"),
        (dict(f=2.5), "scale factor"),
        (dict(f=0), "scale factor"),
    ],
)
def test_city_rejects_bad_arguments(tmp_path, kwargs, message):
    p = write_csv(tmp_path, "city,lat,lng,population,density\nA,40.0,-74.0,300000,5000\n")
    args = dict(f=10_000, box_side=1.0) | kwargs
    with pytest.raises(ParameterError, match=message):
        load_city_dataset(p, **args)


def test_generators_build_each_graph_once(tmp_path, monkeypatch):
    built = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    generate_er(12, 0.3, LT, 1)
    generate_gaussian_waxman(20, 2, WaxmanParams(0.4, 0.2), IC, 1)
    p = write_csv(tmp_path, "city,lat,lng,population,density\nA,40.0,-74.0,300000,5000\n")
    generate_city(load_city_dataset(p, f=10_000, box_side=1.0), WaxmanParams(0.4, 0.2), LT, 1)
    assert built == [12, 20, 30]
