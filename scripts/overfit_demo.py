#!/usr/bin/env python3
"""Overfit the trigram classification task and watch the accuracy curve.

Also prints the character-level neighborhood of a misspelling after training,
which is the layer the shared character encoder is supposed to organize.
"""

import argparse
import time

import numpy as np

from hitkit import data as D
from hitkit import synth
from hitkit import tensor as T
from hitkit.train import TrainConfig, build_classifier, seed_streams, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=300)
    parser.add_argument("--d-model", type=int, default=32)
    args = parser.parse_args()

    records = synth.classification_records(32, seed=args.seed)
    vocab = D.build_vocab([t for t, _ in records])
    cfg = TrainConfig(d_model=args.d_model, n_heads=4, l_c=1, l_w=1, dropout=0.2,
                      epochs=args.epochs, batch_size=32, max_len=12, max_word_len=10,
                      seed=args.seed)
    model = build_classifier(cfg, vocab.word_size, vocab.char_size, 2,
                             seed_streams(cfg.seed)["init"])
    items = [D.encode_example(t, vocab, target=l, max_len=12, max_word_len=10)
             for t, l in records]

    def accuracy():
        return np.mean(model.predict_probs(items).argmax(axis=1) == [ex.target for ex in items])

    start = time.time()

    def hook(m, epoch, stats):
        acc = accuracy()
        if epoch % 10 == 0 or acc == 1.0:
            print(f"epoch {epoch:3d}  loss {stats.train_loss:.4f}  "
                  f"train acc {acc:.3f}  ({time.time() - start:.1f}s)")
        return acc == 1.0

    result = train(model, items, items, cfg, epoch_hook=hook)
    print(f"finished after {len(result.history)} epochs, accuracy {accuracy():.3f}")

    def char_vec(word):
        with T.no_grad():
            return model.encoder.char_hit.encode_word(vocab.char_ids(word, 10)).data

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    words = synth.FILLERS + synth.MARKERS
    vecs = {w: char_vec(w) for w in words}
    pairs = [(a, b) for i, a in enumerate(words) for b in words[i + 1:]]
    mean_random = np.mean([cos(vecs[a], vecs[b]) for a, b in pairs])
    marker_filler = np.mean([cos(vecs[m], vecs[f])
                             for m in synth.MARKERS for f in synth.FILLERS])
    print("\nchar-level cosine structure after training:")
    print(f"  near-spelling pair thnks/thanks : {cos(vecs['thnks'], vecs['thanks']):.4f}")
    print(f"  mean over random word pairs     : {mean_random:.4f}")
    print(f"  mean marker vs filler pairs     : {marker_filler:.4f}  (class signal)")


if __name__ == "__main__":
    main()
